#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <stddef.h>

static pthread_barrier_t wg_barrier_;
static int wg_group_id_;
static __thread int wg_local_id_[2];

#define __kernel
#define __global
#define __local static
#define CLK_LOCAL_MEM_FENCE 0
#define barrier(flags) pthread_barrier_wait(&wg_barrier_)
#define __attribute__(x)
static inline size_t get_local_id(int dim) { return wg_local_id_[dim]; }
static inline size_t get_group_id(int dim) { (void)dim; return wg_group_id_; }

// Generated by COGENT-repro (CGO 2019 reproduction), OpenCL backend.
// contraction : C[a,b,c] = A[a,d,c] * B[b,d]
// config      : TBx=[a:4] TBy=[b:4] TBk=[d:3] Blk=[c:1]
// work-group  : 4 x 4, register tile 1 x 1
__attribute__((reqd_work_group_size(4, 4, 1)))
__kernel void tc_kernel(__global float* restrict g_C, __global const float* restrict g_A, __global const float* restrict g_B, const int n_a, const int n_b, const int n_c, const int n_d)
{
    const long st_C_a = 1;
    const long st_C_b = (long)n_a;
    const long st_C_c = (long)n_a * (long)n_b;
    const long st_A_a = 1;
    const long st_A_d = (long)n_a;
    const long st_A_c = (long)n_a * (long)n_d;
    const long st_B_b = 1;
    const long st_B_d = (long)n_b;

    const int nt_a = (n_a + 4 - 1) / 4;
    const int nt_b = (n_b + 4 - 1) / 4;
    const int nt_c = (n_c + 1 - 1) / 1;
    const int nt_d = (n_d + 3 - 1) / 3;

    // work-group id decomposition into output-tile offsets
    int bid_ = (int)get_group_id(0);
    const int boff_a = (bid_ % nt_a) * 4;
    bid_ /= nt_a;
    const int boff_b = (bid_ % nt_b) * 4;
    bid_ /= nt_b;
    const int boff_c = bid_ * 1;

    const int tx_ = (int)get_local_id(0);
    const int ty_ = (int)get_local_id(1);
    const int tid_ = tx_ + 4 * ty_;

    __local float s_a[12];
    __local float s_b[12];
    float r_c[1];
    float r_a[1];
    float r_b[1];
    for (int i_ = 0; i_ < 1; ++i_) r_c[i_] = (float)0;

    const int nsteps_ = nt_d;
    for (int step_ = 0; step_ < nsteps_; ++step_) {
        int sid_ = step_;
        const int soff_d = sid_ * 3;
        // stage A tile (12 elements, 2-wide groups)
        for (int l_ = tid_ * 2; l_ < 12; l_ += 32) {
            int rem_ = l_;
            const int lc_a = rem_ % 4;
            rem_ /= 4;
            const int lc_d = rem_ % 3;
            rem_ /= 3;
            const int lc_c = rem_ % 1;
            (void)rem_;
            const int g_a = boff_a + lc_a;
            const int g_d = soff_d + lc_d;
            const int g_c = boff_c + lc_c;
            if ((g_a < n_a) && (g_d < n_d) && (g_c < n_c)) {
                s_a[((lc_d) * 4 + (lc_a)) + 0] = g_A[((long)g_a * st_A_a + (long)g_d * st_A_d + (long)g_c * st_A_c) + 0];
                s_a[((lc_d) * 4 + (lc_a)) + 1] = g_A[((long)g_a * st_A_a + (long)g_d * st_A_d + (long)g_c * st_A_c) + 1];
            } else {
                s_a[((lc_d) * 4 + (lc_a)) + 0] = (float)0;
                s_a[((lc_d) * 4 + (lc_a)) + 1] = (float)0;
            }
        }
        // stage B tile (12 elements)
        for (int l_ = tid_; l_ < 12; l_ += 16) {
            int rem_ = l_;
            const int lc_b = rem_ % 4;
            rem_ /= 4;
            const int lc_d = rem_ % 3;
            (void)rem_;
            const int g_b = boff_b + lc_b;
            const int g_d = soff_d + lc_d;
            s_b[(lc_d) * 4 + (lc_b)] = ((g_b < n_b) && (g_d < n_d)) ? g_B[(long)g_b * st_B_b + (long)g_d * st_B_d] : (float)0;
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        // outer-product accumulation over the staged contraction tile
        for (int kk_ = 0; kk_ < 3; ++kk_) {
            for (int rx_ = 0; rx_ < 1; ++rx_)
                r_a[rx_] = s_a[kk_ * 4 + rx_ * 4 + tx_];
            for (int ry_ = 0; ry_ < 1; ++ry_)
                r_b[ry_] = s_b[kk_ * 4 + ry_ * 4 + ty_];
            for (int rx_ = 0; rx_ < 1; ++rx_)
                for (int ry_ = 0; ry_ < 1; ++ry_)
                    r_c[rx_ * 1 + ry_] += r_a[rx_] * r_b[ry_];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }

    // store the register tile of the output
    int remtx_ = tx_;
    const int tc_a = remtx_ % 4;
    (void)remtx_;
    int remty_ = ty_;
    const int tc_b = remty_ % 4;
    (void)remty_;
    for (int ry_ = 0; ry_ < 1; ++ry_) {
        for (int rx_ = 0; rx_ < 1; ++rx_) {
            int remrx_ = rx_;
            (void)remrx_;
            int remry_ = ry_;
            (void)remry_;
            const int gc_a = boff_a + tc_a;
            const int gc_b = boff_b + tc_b;
            const int gc_c = boff_c + 0;
            if ((gc_a < n_a) && (gc_b < n_b) && (gc_c < n_c)) {
                g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b + (long)gc_c * st_C_c] = r_c[rx_ * 1 + ry_];
            }
        }
    }
}

typedef struct {
    float *c; const float *a; const float *b;
    int extents[4];
    int tx; int ty;
} work_item_arg_t;

static void* work_item_(void* p)
{
    work_item_arg_t* w = (work_item_arg_t*)p;
    wg_local_id_[0] = w->tx;
    wg_local_id_[1] = w->ty;
    tc_kernel(w->c, w->a, w->b, w->extents[0], w->extents[1], w->extents[2], w->extents[3]);
    return NULL;
}

int tc_kernel_launch(float* c_, const float* a_, const float* b_, int n_a, int n_b, int n_c, int n_d)
{
    const long num_groups_ = (long)((n_a + 4 - 1) / 4) * (long)((n_b + 4 - 1) / 4) * (long)((n_c + 1 - 1) / 1);
    pthread_t threads_[16];
    work_item_arg_t args_[16];
    if (pthread_barrier_init(&wg_barrier_, NULL, 16) != 0)
        return 2;
    for (long g_ = 0; g_ < num_groups_; ++g_) {
        wg_group_id_ = (int)g_;
        for (int t_ = 0; t_ < 16; ++t_) {
            args_[t_].c = c_; args_[t_].a = a_; args_[t_].b = b_;
            args_[t_].extents[0] = n_a;
            args_[t_].extents[1] = n_b;
            args_[t_].extents[2] = n_c;
            args_[t_].extents[3] = n_d;
            args_[t_].tx = t_ % 4;
            args_[t_].ty = t_ / 4;
            pthread_create(&threads_[t_], NULL, work_item_, &args_[t_]);
        }
        for (int t_ = 0; t_ < 16; ++t_)
            pthread_join(threads_[t_], NULL);
    }
    pthread_barrier_destroy(&wg_barrier_);
    return 0;
}

int main(int argc, char** argv)
{
    if (argc != 8) {
        fprintf(stderr, "usage: %s n_a n_b n_c n_d A.bin B.bin C.bin\n", argv[0]);
        return 1;
    }
    const int n_a = atoi(argv[1]);
    const int n_b = atoi(argv[2]);
    const int n_c = atoi(argv[3]);
    const int n_d = atoi(argv[4]);
    const long elems_a = (long)n_a * (long)n_d * (long)n_c;
    const long elems_b = (long)n_b * (long)n_d;
    const long elems_c = (long)n_a * (long)n_b * (long)n_c;
    float* A_ = (float*)malloc(sizeof(float) * elems_a);
    float* B_ = (float*)malloc(sizeof(float) * elems_b);
    float* C_ = (float*)calloc(elems_c, sizeof(float));
    if (!A_ || !B_ || !C_) return 2;
    FILE* fa = fopen(argv[5], "rb");
    FILE* fb = fopen(argv[6], "rb");
    if (!fa || !fb) return 3;
    if (fread(A_, sizeof(float), elems_a, fa) != (size_t)elems_a) return 4;
    if (fread(B_, sizeof(float), elems_b, fb) != (size_t)elems_b) return 4;
    fclose(fa); fclose(fb);
    const int status_ = tc_kernel_launch(C_, A_, B_, n_a, n_b, n_c, n_d);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[7], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(float), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
