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
        long row_off_[8];
        int row_ok_[8];
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
                {
                    for (int lc_g = 0; lc_g < 3; lc_g += 1) {
                        const int g_g = soff_g + lc_g;
                        const int g_d = boff_d + 0;
                        for (int lc_b = 0; lc_b < 2; lc_b += 1) {
                            const int g_b = boff_b + lc_b;
                            const long row_at_ = (long)g_b * st_B_b + (long)g_d * st_B_d + (long)g_g * st_B_g;
                            const int row_in_ = (g_b < n_b) && (g_d < n_d) && (g_g < n_g);
                            for (int lc_a = 0; lc_a < 4; lc_a += 1) {
                                const int g_a = boff_a + lc_a;
                                s_a[(lc_g) * 8 + (lc_a + 4 * (lc_b))] = (row_in_ && (g_a < n_a)) ? g_B[row_at_ + (long)g_a * st_B_a] : (double)0;
                            }
                        }
                    }
                }
                {
                    for (int lc_c = 0; lc_c < 2; lc_c += 1) {
                        const int g_c = boff_c + lc_c;
                        const int g_e = boff_e + 0;
                        for (int lc_f = 0; lc_f < 2; lc_f += 1) {
                            const int g_f = boff_f + lc_f;
                            const long row_at_ = (long)g_f * st_A_f + (long)g_e * st_A_e + (long)g_c * st_A_c;
                            const int row_in_ = (g_f < n_f) && (g_e < n_e) && (g_c < n_c);
                            for (int lc_g = 0; lc_g < 3; lc_g += 1) {
                                const int g_g = soff_g + lc_g;
                                s_b[(lc_g) * 4 + (lc_f + 2 * (lc_c))] = (row_in_ && (g_g < n_g)) ? g_A[row_at_ + (long)g_g * st_A_g] : (double)0;
                            }
                        }
                    }
                }
                for (int x0_ = 0; x0_ < 8; x0_ += 4) {
                    for (int y0_ = 0; y0_ < 4; y0_ += 4) {
                        double* restrict c_blk_ = &c_tile_[(long)x0_ * 4 + y0_];
                        double r0_0_ = c_blk_[0]; double r0_1_ = c_blk_[1]; double r0_2_ = c_blk_[2]; double r0_3_ = c_blk_[3];
                        double r1_0_ = c_blk_[4]; double r1_1_ = c_blk_[5]; double r1_2_ = c_blk_[6]; double r1_3_ = c_blk_[7];
                        double r2_0_ = c_blk_[8]; double r2_1_ = c_blk_[9]; double r2_2_ = c_blk_[10]; double r2_3_ = c_blk_[11];
                        double r3_0_ = c_blk_[12]; double r3_1_ = c_blk_[13]; double r3_2_ = c_blk_[14]; double r3_3_ = c_blk_[15];
                        for (int kk_ = 0; kk_ < 3; ++kk_) {
                            const double* restrict a_ = &s_a[kk_ * 8 + x0_];
                            const double* restrict b_ = &s_b[kk_ * 4 + y0_];
                            r0_0_ += a_[0] * b_[0]; r0_1_ += a_[0] * b_[1]; r0_2_ += a_[0] * b_[2]; r0_3_ += a_[0] * b_[3];
                            r1_0_ += a_[1] * b_[0]; r1_1_ += a_[1] * b_[1]; r1_2_ += a_[1] * b_[2]; r1_3_ += a_[1] * b_[3];
                            r2_0_ += a_[2] * b_[0]; r2_1_ += a_[2] * b_[1]; r2_2_ += a_[2] * b_[2]; r2_3_ += a_[2] * b_[3];
                            r3_0_ += a_[3] * b_[0]; r3_1_ += a_[3] * b_[1]; r3_2_ += a_[3] * b_[2]; r3_3_ += a_[3] * b_[3];
                        }
                        c_blk_[0] = r0_0_; c_blk_[1] = r0_1_; c_blk_[2] = r0_2_; c_blk_[3] = r0_3_;
                        c_blk_[4] = r1_0_; c_blk_[5] = r1_1_; c_blk_[6] = r1_2_; c_blk_[7] = r1_3_;
                        c_blk_[8] = r2_0_; c_blk_[9] = r2_1_; c_blk_[10] = r2_2_; c_blk_[11] = r2_3_;
                        c_blk_[12] = r3_0_; c_blk_[13] = r3_1_; c_blk_[14] = r3_2_; c_blk_[15] = r3_3_;
                    }
                }
            }
            const long c_base_ = (long)boff_a * st_C_a + (long)boff_b * st_C_b + (long)boff_c * st_C_c + (long)boff_d * st_C_d + (long)boff_e * st_C_e + (long)boff_f * st_C_f;
            for (int x_ = 0; x_ < 8; ++x_) {
                const int tx_ = x_ % 4;
                const int rx_ = x_ / 4;
                int remtx_ = tx_;
                const int tc_a = remtx_ % 4;
                (void)remtx_;
                int remrx_ = rx_;
                const int rc_b = remrx_ % 2;
                (void)remrx_;
                row_off_[x_] = (long)tc_a * st_C_a + (long)rc_b * st_C_b;
                row_ok_[x_] = (boff_a + tc_a < n_a) && (boff_b + rc_b < n_b);
            }
            for (int y_ = 0; y_ < 4; ++y_) {
                const int ty_ = y_ % 2;
                const int ry_ = y_ / 2;
                int remty_ = ty_;
                const int tc_f = remty_ % 2;
                (void)remty_;
                int remry_ = ry_;
                const int rc_c = remry_ % 2;
                (void)remry_;
                if (!((boff_c + rc_c < n_c) && (boff_f + tc_f < n_f))) continue;
                double* restrict c_col_ = &g_C[c_base_ + (long)rc_c * st_C_c + (long)tc_f * st_C_f];
                for (int x_ = 0; x_ < 8; ++x_)
                    if (row_ok_[x_])
                        c_col_[row_off_[x_]] = c_tile_[(long)x_ * 4 + y_];
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
