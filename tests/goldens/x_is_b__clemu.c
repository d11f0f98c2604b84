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
// contraction : C[a,b,c,d,e,f] = A[g,f,e,c] * B[a,b,d,g]
// config      : TBx=[a:4] TBy=[f:2] TBk=[g:3] REGx=[b:2] REGy=[c:2] Blk=[d:1, e:1]
// work-group  : 4 x 2, register tile 2 x 2
__attribute__((reqd_work_group_size(4, 2, 1)))
__kernel void tc_kernel(__global double* restrict g_C, __global const double* restrict g_A, __global const double* restrict g_B, const int n_a, const int n_b, const int n_c, const int n_d, const int n_e, const int n_f, const int n_g)
{
    const long st_C_a = 1;
    const long st_C_b = (long)n_a;
    const long st_C_c = (long)n_a * (long)n_b;
    const long st_C_d = (long)n_a * (long)n_b * (long)n_c;
    const long st_C_e = (long)n_a * (long)n_b * (long)n_c * (long)n_d;
    const long st_C_f = (long)n_a * (long)n_b * (long)n_c * (long)n_d * (long)n_e;
    const long st_A_g = 1;
    const long st_A_f = (long)n_g;
    const long st_A_e = (long)n_g * (long)n_f;
    const long st_A_c = (long)n_g * (long)n_f * (long)n_e;
    const long st_B_a = 1;
    const long st_B_b = (long)n_a;
    const long st_B_d = (long)n_a * (long)n_b;
    const long st_B_g = (long)n_a * (long)n_b * (long)n_d;

    const int nt_a = (n_a + 4 - 1) / 4;
    const int nt_b = (n_b + 2 - 1) / 2;
    const int nt_f = (n_f + 2 - 1) / 2;
    const int nt_c = (n_c + 2 - 1) / 2;
    const int nt_d = (n_d + 1 - 1) / 1;
    const int nt_e = (n_e + 1 - 1) / 1;
    const int nt_g = (n_g + 3 - 1) / 3;

    // work-group id decomposition into output-tile offsets
    int bid_ = (int)get_group_id(0);
    const int boff_a = (bid_ % nt_a) * 4;
    bid_ /= nt_a;
    const int boff_b = (bid_ % nt_b) * 2;
    bid_ /= nt_b;
    const int boff_f = (bid_ % nt_f) * 2;
    bid_ /= nt_f;
    const int boff_c = (bid_ % nt_c) * 2;
    bid_ /= nt_c;
    const int boff_d = (bid_ % nt_d) * 1;
    bid_ /= nt_d;
    const int boff_e = bid_ * 1;

    const int tx_ = (int)get_local_id(0);
    const int ty_ = (int)get_local_id(1);
    const int tid_ = tx_ + 4 * ty_;

    __local double s_a[24];
    __local double s_b[12];
    double r_c[4];
    double r_a[2];
    double r_b[2];
    for (int i_ = 0; i_ < 4; ++i_) r_c[i_] = (double)0;

    const int nsteps_ = nt_g;
    for (int step_ = 0; step_ < nsteps_; ++step_) {
        int sid_ = step_;
        const int soff_g = sid_ * 3;
        // stage B tile (24 elements)
        for (int l_ = tid_; l_ < 24; l_ += 8) {
            int rem_ = l_;
            const int lc_a = rem_ % 4;
            rem_ /= 4;
            const int lc_b = rem_ % 2;
            rem_ /= 2;
            const int lc_d = rem_ % 1;
            rem_ /= 1;
            const int lc_g = rem_ % 3;
            (void)rem_;
            const int g_a = boff_a + lc_a;
            const int g_b = boff_b + lc_b;
            const int g_d = boff_d + lc_d;
            const int g_g = soff_g + lc_g;
            s_a[(lc_g) * 8 + (lc_a + 4 * (lc_b))] = ((g_a < n_a) && (g_b < n_b) && (g_d < n_d) && (g_g < n_g)) ? g_B[(long)g_a * st_B_a + (long)g_b * st_B_b + (long)g_d * st_B_d + (long)g_g * st_B_g] : (double)0;
        }
        // stage A tile (12 elements)
        for (int l_ = tid_; l_ < 12; l_ += 8) {
            int rem_ = l_;
            const int lc_g = rem_ % 3;
            rem_ /= 3;
            const int lc_f = rem_ % 2;
            rem_ /= 2;
            const int lc_e = rem_ % 1;
            rem_ /= 1;
            const int lc_c = rem_ % 2;
            (void)rem_;
            const int g_g = soff_g + lc_g;
            const int g_f = boff_f + lc_f;
            const int g_e = boff_e + lc_e;
            const int g_c = boff_c + lc_c;
            s_b[(lc_g) * 4 + (lc_f + 2 * (lc_c))] = ((g_g < n_g) && (g_f < n_f) && (g_e < n_e) && (g_c < n_c)) ? g_A[(long)g_g * st_A_g + (long)g_f * st_A_f + (long)g_e * st_A_e + (long)g_c * st_A_c] : (double)0;
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        // outer-product accumulation over the staged contraction tile
        for (int kk_ = 0; kk_ < 3; ++kk_) {
            for (int rx_ = 0; rx_ < 2; ++rx_)
                r_a[rx_] = s_a[kk_ * 8 + rx_ * 4 + tx_];
            for (int ry_ = 0; ry_ < 2; ++ry_)
                r_b[ry_] = s_b[kk_ * 4 + ry_ * 2 + ty_];
            for (int rx_ = 0; rx_ < 2; ++rx_)
                for (int ry_ = 0; ry_ < 2; ++ry_)
                    r_c[rx_ * 2 + ry_] += r_a[rx_] * r_b[ry_];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }

    // store the register tile of the output
    int remtx_ = tx_;
    const int tc_a = remtx_ % 4;
    (void)remtx_;
    int remty_ = ty_;
    const int tc_f = remty_ % 2;
    (void)remty_;
    for (int ry_ = 0; ry_ < 2; ++ry_) {
        for (int rx_ = 0; rx_ < 2; ++rx_) {
            int remrx_ = rx_;
            const int rc_b = remrx_ % 2;
            (void)remrx_;
            int remry_ = ry_;
            const int rc_c = remry_ % 2;
            (void)remry_;
            const int gc_a = boff_a + tc_a;
            const int gc_b = boff_b + rc_b;
            const int gc_c = boff_c + rc_c;
            const int gc_d = boff_d + 0;
            const int gc_e = boff_e + 0;
            const int gc_f = boff_f + tc_f;
            if ((gc_a < n_a) && (gc_b < n_b) && (gc_c < n_c) && (gc_d < n_d) && (gc_e < n_e) && (gc_f < n_f)) {
                g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b + (long)gc_c * st_C_c + (long)gc_d * st_C_d + (long)gc_e * st_C_e + (long)gc_f * st_C_f] = r_c[rx_ * 2 + ry_];
            }
        }
    }
}

typedef struct {
    double *c; const double *a; const double *b;
    int extents[7];
    int tx; int ty;
} work_item_arg_t;

static void* work_item_(void* p)
{
    work_item_arg_t* w = (work_item_arg_t*)p;
    wg_local_id_[0] = w->tx;
    wg_local_id_[1] = w->ty;
    tc_kernel(w->c, w->a, w->b, w->extents[0], w->extents[1], w->extents[2], w->extents[3], w->extents[4], w->extents[5], w->extents[6]);
    return NULL;
}

int tc_kernel_launch(double* c_, const double* a_, const double* b_, int n_a, int n_b, int n_c, int n_d, int n_e, int n_f, int n_g)
{
    const long num_groups_ = (long)((n_a + 4 - 1) / 4) * (long)((n_b + 2 - 1) / 2) * (long)((n_f + 2 - 1) / 2) * (long)((n_c + 2 - 1) / 2) * (long)((n_d + 1 - 1) / 1) * (long)((n_e + 1 - 1) / 1);
    pthread_t threads_[8];
    work_item_arg_t args_[8];
    if (pthread_barrier_init(&wg_barrier_, NULL, 8) != 0)
        return 2;
    for (long g_ = 0; g_ < num_groups_; ++g_) {
        wg_group_id_ = (int)g_;
        for (int t_ = 0; t_ < 8; ++t_) {
            args_[t_].c = c_; args_[t_].a = a_; args_[t_].b = b_;
            args_[t_].extents[0] = n_a;
            args_[t_].extents[1] = n_b;
            args_[t_].extents[2] = n_c;
            args_[t_].extents[3] = n_d;
            args_[t_].extents[4] = n_e;
            args_[t_].extents[5] = n_f;
            args_[t_].extents[6] = n_g;
            args_[t_].tx = t_ % 4;
            args_[t_].ty = t_ / 4;
            pthread_create(&threads_[t_], NULL, work_item_, &args_[t_]);
        }
        for (int t_ = 0; t_ < 8; ++t_)
            pthread_join(threads_[t_], NULL);
    }
    pthread_barrier_destroy(&wg_barrier_);
    return 0;
}

int main(int argc, char** argv)
{
    if (argc != 11) {
        fprintf(stderr, "usage: %s n_a n_b n_c n_d n_e n_f n_g A.bin B.bin C.bin\n", argv[0]);
        return 1;
    }
    const int n_a = atoi(argv[1]);
    const int n_b = atoi(argv[2]);
    const int n_c = atoi(argv[3]);
    const int n_d = atoi(argv[4]);
    const int n_e = atoi(argv[5]);
    const int n_f = atoi(argv[6]);
    const int n_g = atoi(argv[7]);
    const long elems_a = (long)n_g * (long)n_f * (long)n_e * (long)n_c;
    const long elems_b = (long)n_a * (long)n_b * (long)n_d * (long)n_g;
    const long elems_c = (long)n_a * (long)n_b * (long)n_c * (long)n_d * (long)n_e * (long)n_f;
    double* A_ = (double*)malloc(sizeof(double) * elems_a);
    double* B_ = (double*)malloc(sizeof(double) * elems_b);
    double* C_ = (double*)calloc(elems_c, sizeof(double));
    if (!A_ || !B_ || !C_) return 2;
    FILE* fa = fopen(argv[8], "rb");
    FILE* fb = fopen(argv[9], "rb");
    if (!fa || !fb) return 3;
    if (fread(A_, sizeof(double), elems_a, fa) != (size_t)elems_a) return 4;
    if (fread(B_, sizeof(double), elems_b, fb) != (size_t)elems_b) return 4;
    fclose(fa); fclose(fb);
    const int status_ = tc_kernel_launch(C_, A_, B_, n_a, n_b, n_c, n_d, n_e, n_f, n_g);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[10], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(double), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
