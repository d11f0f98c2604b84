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
// contraction : C[a,b] = A[a,k] * B[k,b]
// config      : TBx=[a:8] TBy=[b:8] TBk=[k:8]
// work-group  : 8 x 8, register tile 1 x 1
__attribute__((reqd_work_group_size(8, 8, 1)))
__kernel void tc_kernel(__global double* restrict g_C, __global const double* restrict g_A, __global const double* restrict g_B, const int n_a, const int n_b, const int n_k)
{
    const long st_C_a = 1;
    const long st_C_b = (long)n_a;
    const long st_A_a = 1;
    const long st_A_k = (long)n_a;
    const long st_B_k = 1;
    const long st_B_b = (long)n_k;

    const int nt_a = (n_a + 8 - 1) / 8;
    const int nt_b = (n_b + 8 - 1) / 8;
    const int nt_k = (n_k + 8 - 1) / 8;

    // work-group id decomposition into output-tile offsets
    int bid_ = (int)get_group_id(0);
    const int boff_a = (bid_ % nt_a) * 8;
    bid_ /= nt_a;
    const int boff_b = bid_ * 8;

    const int tx_ = (int)get_local_id(0);
    const int ty_ = (int)get_local_id(1);
    const int tid_ = tx_ + 8 * ty_;

    __local double s_a[64];
    __local double s_b[64];
    double r_c[1];
    double r_a[1];
    double r_b[1];
    for (int i_ = 0; i_ < 1; ++i_) r_c[i_] = (double)0;

    const int nsteps_ = nt_k;
    for (int step_ = 0; step_ < nsteps_; ++step_) {
        int sid_ = step_;
        const int soff_k = sid_ * 8;
        // stage A tile (64 elements, 2-wide groups)
        for (int l_ = tid_ * 2; l_ < 64; l_ += 128) {
            int rem_ = l_;
            const int lc_a = rem_ % 8;
            rem_ /= 8;
            const int lc_k = rem_ % 8;
            (void)rem_;
            const int g_a = boff_a + lc_a;
            const int g_k = soff_k + lc_k;
            if ((g_a < n_a) && (g_k < n_k)) {
                s_a[((lc_k) * 8 + (lc_a)) + 0] = g_A[((long)g_a * st_A_a + (long)g_k * st_A_k) + 0];
                s_a[((lc_k) * 8 + (lc_a)) + 1] = g_A[((long)g_a * st_A_a + (long)g_k * st_A_k) + 1];
            } else {
                s_a[((lc_k) * 8 + (lc_a)) + 0] = (double)0;
                s_a[((lc_k) * 8 + (lc_a)) + 1] = (double)0;
            }
        }
        // stage B tile (64 elements, 2-wide groups)
        for (int l_ = tid_ * 2; l_ < 64; l_ += 128) {
            int rem_ = l_;
            const int lc_k = rem_ % 8;
            rem_ /= 8;
            const int lc_b = rem_ % 8;
            (void)rem_;
            const int g_k = soff_k + lc_k;
            const int g_b = boff_b + lc_b;
            if ((g_k < n_k) && (g_b < n_b)) {
                s_b[((lc_k) * 8 + (lc_b)) + 0] = g_B[((long)g_k * st_B_k + (long)g_b * st_B_b) + 0];
                s_b[((lc_k) * 8 + (lc_b)) + 8] = g_B[((long)g_k * st_B_k + (long)g_b * st_B_b) + 1];
            } else {
                s_b[((lc_k) * 8 + (lc_b)) + 0] = (double)0;
                s_b[((lc_k) * 8 + (lc_b)) + 8] = (double)0;
            }
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        // outer-product accumulation over the staged contraction tile
        for (int kk_ = 0; kk_ < 8; ++kk_) {
            for (int rx_ = 0; rx_ < 1; ++rx_)
                r_a[rx_] = s_a[kk_ * 8 + rx_ * 8 + tx_];
            for (int ry_ = 0; ry_ < 1; ++ry_)
                r_b[ry_] = s_b[kk_ * 8 + ry_ * 8 + ty_];
            for (int rx_ = 0; rx_ < 1; ++rx_)
                for (int ry_ = 0; ry_ < 1; ++ry_)
                    r_c[rx_ * 1 + ry_] += r_a[rx_] * r_b[ry_];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }

    // store the register tile of the output
    int remtx_ = tx_;
    const int tc_a = remtx_ % 8;
    (void)remtx_;
    int remty_ = ty_;
    const int tc_b = remty_ % 8;
    (void)remty_;
    for (int ry_ = 0; ry_ < 1; ++ry_) {
        for (int rx_ = 0; rx_ < 1; ++rx_) {
            int remrx_ = rx_;
            (void)remrx_;
            int remry_ = ry_;
            (void)remry_;
            const int gc_a = boff_a + tc_a;
            const int gc_b = boff_b + tc_b;
            if ((gc_a < n_a) && (gc_b < n_b)) {
                g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b] = r_c[rx_ * 1 + ry_];
            }
        }
    }
}

typedef struct {
    double *c; const double *a; const double *b;
    int extents[3];
    int tx; int ty;
} work_item_arg_t;

static void* work_item_(void* p)
{
    work_item_arg_t* w = (work_item_arg_t*)p;
    wg_local_id_[0] = w->tx;
    wg_local_id_[1] = w->ty;
    tc_kernel(w->c, w->a, w->b, w->extents[0], w->extents[1], w->extents[2]);
    return NULL;
}

int tc_kernel_launch(double* c_, const double* a_, const double* b_, int n_a, int n_b, int n_k)
{
    const long num_groups_ = (long)((n_a + 8 - 1) / 8) * (long)((n_b + 8 - 1) / 8);
    pthread_t threads_[64];
    work_item_arg_t args_[64];
    if (pthread_barrier_init(&wg_barrier_, NULL, 64) != 0)
        return 2;
    for (long g_ = 0; g_ < num_groups_; ++g_) {
        wg_group_id_ = (int)g_;
        for (int t_ = 0; t_ < 64; ++t_) {
            args_[t_].c = c_; args_[t_].a = a_; args_[t_].b = b_;
            args_[t_].extents[0] = n_a;
            args_[t_].extents[1] = n_b;
            args_[t_].extents[2] = n_k;
            args_[t_].tx = t_ % 8;
            args_[t_].ty = t_ / 8;
            pthread_create(&threads_[t_], NULL, work_item_, &args_[t_]);
        }
        for (int t_ = 0; t_ < 64; ++t_)
            pthread_join(threads_[t_], NULL);
    }
    pthread_barrier_destroy(&wg_barrier_);
    return 0;
}

int main(int argc, char** argv)
{
    if (argc != 7) {
        fprintf(stderr, "usage: %s n_a n_b n_k A.bin B.bin C.bin\n", argv[0]);
        return 1;
    }
    const int n_a = atoi(argv[1]);
    const int n_b = atoi(argv[2]);
    const int n_k = atoi(argv[3]);
    const long elems_a = (long)n_a * (long)n_k;
    const long elems_b = (long)n_k * (long)n_b;
    const long elems_c = (long)n_a * (long)n_b;
    double* A_ = (double*)malloc(sizeof(double) * elems_a);
    double* B_ = (double*)malloc(sizeof(double) * elems_b);
    double* C_ = (double*)calloc(elems_c, sizeof(double));
    if (!A_ || !B_ || !C_) return 2;
    FILE* fa = fopen(argv[4], "rb");
    FILE* fb = fopen(argv[5], "rb");
    if (!fa || !fb) return 3;
    if (fread(A_, sizeof(double), elems_a, fa) != (size_t)elems_a) return 4;
    if (fread(B_, sizeof(double), elems_b, fb) != (size_t)elems_b) return 4;
    fclose(fa); fclose(fb);
    const int status_ = tc_kernel_launch(C_, A_, B_, n_a, n_b, n_k);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[6], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(double), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
