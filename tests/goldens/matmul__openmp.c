/* Generated by COGENT-repro: OpenMP-C CPU backend for
 * C[a,b] = A[a,k] * B[k,b]
 * config: TBx=[a:8] TBy=[b:8] TBk=[k:8]
 * (compiles as serial C99 when built without -fopenmp)
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int tc_kernel_omp(double* g_C, const double* g_A, const double* g_B, int n_a, int n_b, int n_k)
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
    const long num_blocks_ = (long)nt_a * (long)nt_b;
    const int nsteps_ = nt_k;
    int failed_ = 0;
    #pragma omp parallel
    {
        double* s_a = (double*)malloc(sizeof(double) * 64);
        double* s_b = (double*)malloc(sizeof(double) * 64);
        double* c_tile_ = (double*)malloc(sizeof(double) * 64);
        if (!s_a || !s_b || !c_tile_) {
            #pragma omp atomic write
            failed_ = 1;
        }
        #pragma omp barrier
        const long run_blocks_ = failed_ ? 0 : num_blocks_;
        #pragma omp for schedule(static)
        for (long blk_ = 0; blk_ < run_blocks_; ++blk_) {
            int bid_ = (int)blk_;
            const int boff_a = (bid_ % nt_a) * 8;
            bid_ /= nt_a;
            const int boff_b = bid_ * 8;
            memset(c_tile_, 0, sizeof(double) * 64);
            for (int step_ = 0; step_ < nsteps_; ++step_) {
                int sid_ = step_;
                const int soff_k = sid_ * 8;
                for (long l_ = 0; l_ < 64; l_ += 2) {
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
                for (long l_ = 0; l_ < 64; l_ += 2) {
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
                for (int kk_ = 0; kk_ < 8; ++kk_) {
                    const double* restrict a_col_ = &s_a[kk_ * 8];
                    const double* restrict b_col_ = &s_b[kk_ * 8];
                    for (int x_ = 0; x_ < 8; ++x_) {
                        const double a_x_ = a_col_[x_];
                        double* restrict c_row_ = &c_tile_[(long)x_ * 8];
                        for (int y_ = 0; y_ < 8; ++y_)
                            c_row_[y_] += a_x_ * b_col_[y_];
                    }
                }
            }
            for (int x_ = 0; x_ < 8; ++x_) {
                const int tx_ = x_ % 8;
                const int rx_ = x_ / 8;
                for (int y_ = 0; y_ < 8; ++y_) {
                    const int ty_ = y_ % 8;
                    const int ry_ = y_ / 8;
                    int remtx_ = tx_;
                    const int tc_a = remtx_ % 8;
                    (void)remtx_;
                    int remty_ = ty_;
                    const int tc_b = remty_ % 8;
                    (void)remty_;
                    int remrx_ = rx_;
                    (void)remrx_;
                    int remry_ = ry_;
                    (void)remry_;
                    const int gc_a = boff_a + tc_a;
                    const int gc_b = boff_b + tc_b;
                    if ((gc_a < n_a) && (gc_b < n_b)) {
                        g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b] = c_tile_[(long)x_ * 8 + y_];
                    }
                }
            }
        }
        free(s_a); free(s_b); free(c_tile_);
    }
    return failed_ ? 2 : 0;
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
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_k);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[6], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(double), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
