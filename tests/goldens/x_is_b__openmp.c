/* Generated by COGENT-repro: OpenMP-C CPU backend for
 * C[a,b,c,d,e,f] = A[g,f,e,c] * B[a,b,d,g]
 * config: TBx=[a:4] TBy=[f:2] TBk=[g:3] REGx=[b:2] REGy=[c:2] Blk=[d:1, e:1]
 * (compiles as serial C99 when built without -fopenmp)
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int tc_kernel_omp(double* g_C, const double* g_A, const double* g_B, int n_a, int n_b, int n_c, int n_d, int n_e, int n_f, int n_g)
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
    const long num_blocks_ = (long)nt_a * (long)nt_b * (long)nt_f * (long)nt_c * (long)nt_d * (long)nt_e;
    const int nsteps_ = nt_g;
    int failed_ = 0;
    #pragma omp parallel
    {
        double* s_a = (double*)malloc(sizeof(double) * 24);
        double* s_b = (double*)malloc(sizeof(double) * 12);
        double* c_tile_ = (double*)malloc(sizeof(double) * 32);
        if (!s_a || !s_b || !c_tile_) {
            #pragma omp atomic write
            failed_ = 1;
        }
        #pragma omp barrier
        const long run_blocks_ = failed_ ? 0 : num_blocks_;
        #pragma omp for schedule(static)
        for (long blk_ = 0; blk_ < run_blocks_; ++blk_) {
            int bid_ = (int)blk_;
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
            memset(c_tile_, 0, sizeof(double) * 32);
            for (int step_ = 0; step_ < nsteps_; ++step_) {
                int sid_ = step_;
                const int soff_g = sid_ * 3;
                for (long l_ = 0; l_ < 24; ++l_) {
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
                for (long l_ = 0; l_ < 12; ++l_) {
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
                for (int kk_ = 0; kk_ < 3; ++kk_) {
                    const double* restrict a_col_ = &s_a[kk_ * 8];
                    const double* restrict b_col_ = &s_b[kk_ * 4];
                    for (int x_ = 0; x_ < 8; ++x_) {
                        const double a_x_ = a_col_[x_];
                        double* restrict c_row_ = &c_tile_[(long)x_ * 4];
                        for (int y_ = 0; y_ < 4; ++y_)
                            c_row_[y_] += a_x_ * b_col_[y_];
                    }
                }
            }
            for (int x_ = 0; x_ < 8; ++x_) {
                const int tx_ = x_ % 4;
                const int rx_ = x_ / 4;
                for (int y_ = 0; y_ < 4; ++y_) {
                    const int ty_ = y_ % 2;
                    const int ry_ = y_ / 2;
                    int remtx_ = tx_;
                    const int tc_a = remtx_ % 4;
                    (void)remtx_;
                    int remty_ = ty_;
                    const int tc_f = remty_ % 2;
                    (void)remty_;
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
                        g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b + (long)gc_c * st_C_c + (long)gc_d * st_C_d + (long)gc_e * st_C_e + (long)gc_f * st_C_f] = c_tile_[(long)x_ * 4 + y_];
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
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_c, n_d, n_e, n_f, n_g);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[10], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(double), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
