/* Generated by COGENT-repro: OpenMP-C CPU backend for
 * C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]
 * config: TBx=[a:4] TBy=[d:2] TBk=[e:2, f:2] REGx=[b:2] REGy=[c:3]
 * (compiles as serial C99 when built without -fopenmp)
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int tc_kernel_omp(double* g_C, const double* g_A, const double* g_B, int n_a, int n_b, int n_c, int n_d, int n_e, int n_f)
{
    const long st_C_a = 1;
    const long st_C_b = (long)n_a;
    const long st_C_c = (long)n_a * (long)n_b;
    const long st_C_d = (long)n_a * (long)n_b * (long)n_c;
    const long st_A_a = 1;
    const long st_A_e = (long)n_a;
    const long st_A_b = (long)n_a * (long)n_e;
    const long st_A_f = (long)n_a * (long)n_e * (long)n_b;
    const long st_B_d = 1;
    const long st_B_f = (long)n_d;
    const long st_B_c = (long)n_d * (long)n_f;
    const long st_B_e = (long)n_d * (long)n_f * (long)n_c;
    const int nt_a = (n_a + 4 - 1) / 4;
    const int nt_b = (n_b + 2 - 1) / 2;
    const int nt_d = (n_d + 2 - 1) / 2;
    const int nt_c = (n_c + 3 - 1) / 3;
    const int nt_e = (n_e + 2 - 1) / 2;
    const int nt_f = (n_f + 2 - 1) / 2;
    const long num_blocks_ = (long)nt_a * (long)nt_b * (long)nt_d * (long)nt_c;
    const int nsteps_ = nt_e * nt_f;
    int failed_ = 0;
    #pragma omp parallel
    {
        double* s_a = (double*)malloc(sizeof(double) * 32);
        double* s_b = (double*)malloc(sizeof(double) * 24);
        double* c_tile_ = (double*)malloc(sizeof(double) * 48);
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
            const int boff_d = (bid_ % nt_d) * 2;
            bid_ /= nt_d;
            const int boff_c = bid_ * 3;
            memset(c_tile_, 0, sizeof(double) * 48);
            for (int step_ = 0; step_ < nsteps_; ++step_) {
                int sid_ = step_;
                const int soff_e = (sid_ % nt_e) * 2;
                sid_ /= nt_e;
                const int soff_f = sid_ * 2;
                for (long l_ = 0; l_ < 32; ++l_) {
                    int rem_ = l_;
                    const int lc_a = rem_ % 4;
                    rem_ /= 4;
                    const int lc_e = rem_ % 2;
                    rem_ /= 2;
                    const int lc_b = rem_ % 2;
                    rem_ /= 2;
                    const int lc_f = rem_ % 2;
                    (void)rem_;
                    const int g_a = boff_a + lc_a;
                    const int g_e = soff_e + lc_e;
                    const int g_b = boff_b + lc_b;
                    const int g_f = soff_f + lc_f;
                    s_a[(lc_e + 2 * (lc_f)) * 8 + (lc_a + 4 * (lc_b))] = ((g_a < n_a) && (g_e < n_e) && (g_b < n_b) && (g_f < n_f)) ? g_A[(long)g_a * st_A_a + (long)g_e * st_A_e + (long)g_b * st_A_b + (long)g_f * st_A_f] : (double)0;
                }
                for (long l_ = 0; l_ < 24; l_ += 2) {
                    int rem_ = l_;
                    const int lc_d = rem_ % 2;
                    rem_ /= 2;
                    const int lc_f = rem_ % 2;
                    rem_ /= 2;
                    const int lc_c = rem_ % 3;
                    rem_ /= 3;
                    const int lc_e = rem_ % 2;
                    (void)rem_;
                    const int g_d = boff_d + lc_d;
                    const int g_f = soff_f + lc_f;
                    const int g_c = boff_c + lc_c;
                    const int g_e = soff_e + lc_e;
                    if ((g_d < n_d) && (g_f < n_f) && (g_c < n_c) && (g_e < n_e)) {
                        s_b[((lc_e + 2 * (lc_f)) * 6 + (lc_d + 2 * (lc_c))) + 0] = g_B[((long)g_d * st_B_d + (long)g_f * st_B_f + (long)g_c * st_B_c + (long)g_e * st_B_e) + 0];
                        s_b[((lc_e + 2 * (lc_f)) * 6 + (lc_d + 2 * (lc_c))) + 1] = g_B[((long)g_d * st_B_d + (long)g_f * st_B_f + (long)g_c * st_B_c + (long)g_e * st_B_e) + 1];
                    } else {
                        s_b[((lc_e + 2 * (lc_f)) * 6 + (lc_d + 2 * (lc_c))) + 0] = (double)0;
                        s_b[((lc_e + 2 * (lc_f)) * 6 + (lc_d + 2 * (lc_c))) + 1] = (double)0;
                    }
                }
                for (int kk_ = 0; kk_ < 4; ++kk_) {
                    const double* restrict a_col_ = &s_a[kk_ * 8];
                    const double* restrict b_col_ = &s_b[kk_ * 6];
                    for (int x_ = 0; x_ < 8; ++x_) {
                        const double a_x_ = a_col_[x_];
                        double* restrict c_row_ = &c_tile_[(long)x_ * 6];
                        for (int y_ = 0; y_ < 6; ++y_)
                            c_row_[y_] += a_x_ * b_col_[y_];
                    }
                }
            }
            for (int x_ = 0; x_ < 8; ++x_) {
                const int tx_ = x_ % 4;
                const int rx_ = x_ / 4;
                for (int y_ = 0; y_ < 6; ++y_) {
                    const int ty_ = y_ % 2;
                    const int ry_ = y_ / 2;
                    int remtx_ = tx_;
                    const int tc_a = remtx_ % 4;
                    (void)remtx_;
                    int remty_ = ty_;
                    const int tc_d = remty_ % 2;
                    (void)remty_;
                    int remrx_ = rx_;
                    const int rc_b = remrx_ % 2;
                    (void)remrx_;
                    int remry_ = ry_;
                    const int rc_c = remry_ % 3;
                    (void)remry_;
                    const int gc_a = boff_a + tc_a;
                    const int gc_b = boff_b + rc_b;
                    const int gc_c = boff_c + rc_c;
                    const int gc_d = boff_d + tc_d;
                    if ((gc_a < n_a) && (gc_b < n_b) && (gc_c < n_c) && (gc_d < n_d)) {
                        g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b + (long)gc_c * st_C_c + (long)gc_d * st_C_d] = c_tile_[(long)x_ * 6 + y_];
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
    if (argc != 10) {
        fprintf(stderr, "usage: %s n_a n_b n_c n_d n_e n_f A.bin B.bin C.bin\n", argv[0]);
        return 1;
    }
    const int n_a = atoi(argv[1]);
    const int n_b = atoi(argv[2]);
    const int n_c = atoi(argv[3]);
    const int n_d = atoi(argv[4]);
    const int n_e = atoi(argv[5]);
    const int n_f = atoi(argv[6]);
    const long elems_a = (long)n_a * (long)n_e * (long)n_b * (long)n_f;
    const long elems_b = (long)n_d * (long)n_f * (long)n_c * (long)n_e;
    const long elems_c = (long)n_a * (long)n_b * (long)n_c * (long)n_d;
    double* A_ = (double*)malloc(sizeof(double) * elems_a);
    double* B_ = (double*)malloc(sizeof(double) * elems_b);
    double* C_ = (double*)calloc(elems_c, sizeof(double));
    if (!A_ || !B_ || !C_) return 2;
    FILE* fa = fopen(argv[7], "rb");
    FILE* fb = fopen(argv[8], "rb");
    if (!fa || !fb) return 3;
    if (fread(A_, sizeof(double), elems_a, fa) != (size_t)elems_a) return 4;
    if (fread(B_, sizeof(double), elems_b, fb) != (size_t)elems_b) return 4;
    fclose(fa); fclose(fb);
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_c, n_d, n_e, n_f);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[9], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(double), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
