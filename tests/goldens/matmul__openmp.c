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
        long row_off_[8];
        int row_ok_[8];
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
                {
                    for (int lc_k = 0; lc_k < 8; lc_k += 1) {
                        const int g_k = soff_k + lc_k;
                        const long row_at_ = (long)g_k * st_A_k;
                        const int row_in_ = (g_k < n_k);
                        for (int lc_a = 0; lc_a < 8; lc_a += 2) {
                            const int g_a = boff_a + lc_a;
                            if (row_in_ && (g_a < n_a)) {
                                s_a[((lc_k) * 8 + (lc_a)) + 0] = g_A[(row_at_ + (long)g_a * st_A_a) + 0];
                                s_a[((lc_k) * 8 + (lc_a)) + 1] = g_A[(row_at_ + (long)g_a * st_A_a) + 1];
                            } else {
                                s_a[((lc_k) * 8 + (lc_a)) + 0] = (double)0;
                                s_a[((lc_k) * 8 + (lc_a)) + 1] = (double)0;
                            }
                        }
                    }
                }
                {
                    for (int lc_b = 0; lc_b < 8; lc_b += 1) {
                        const int g_b = boff_b + lc_b;
                        const long row_at_ = (long)g_b * st_B_b;
                        const int row_in_ = (g_b < n_b);
                        for (int lc_k = 0; lc_k < 8; lc_k += 2) {
                            const int g_k = soff_k + lc_k;
                            if (row_in_ && (g_k < n_k)) {
                                s_b[((lc_k) * 8 + (lc_b)) + 0] = g_B[(row_at_ + (long)g_k * st_B_k) + 0];
                                s_b[((lc_k) * 8 + (lc_b)) + 8] = g_B[(row_at_ + (long)g_k * st_B_k) + 1];
                            } else {
                                s_b[((lc_k) * 8 + (lc_b)) + 0] = (double)0;
                                s_b[((lc_k) * 8 + (lc_b)) + 8] = (double)0;
                            }
                        }
                    }
                }
                for (int x0_ = 0; x0_ < 8; x0_ += 4) {
                    for (int y0_ = 0; y0_ < 8; y0_ += 8) {
                        double* restrict c_blk_ = &c_tile_[(long)x0_ * 8 + y0_];
                        double r0_0_ = c_blk_[0]; double r0_1_ = c_blk_[1]; double r0_2_ = c_blk_[2]; double r0_3_ = c_blk_[3]; double r0_4_ = c_blk_[4]; double r0_5_ = c_blk_[5]; double r0_6_ = c_blk_[6]; double r0_7_ = c_blk_[7];
                        double r1_0_ = c_blk_[8]; double r1_1_ = c_blk_[9]; double r1_2_ = c_blk_[10]; double r1_3_ = c_blk_[11]; double r1_4_ = c_blk_[12]; double r1_5_ = c_blk_[13]; double r1_6_ = c_blk_[14]; double r1_7_ = c_blk_[15];
                        double r2_0_ = c_blk_[16]; double r2_1_ = c_blk_[17]; double r2_2_ = c_blk_[18]; double r2_3_ = c_blk_[19]; double r2_4_ = c_blk_[20]; double r2_5_ = c_blk_[21]; double r2_6_ = c_blk_[22]; double r2_7_ = c_blk_[23];
                        double r3_0_ = c_blk_[24]; double r3_1_ = c_blk_[25]; double r3_2_ = c_blk_[26]; double r3_3_ = c_blk_[27]; double r3_4_ = c_blk_[28]; double r3_5_ = c_blk_[29]; double r3_6_ = c_blk_[30]; double r3_7_ = c_blk_[31];
                        for (int kk_ = 0; kk_ < 8; ++kk_) {
                            const double* restrict a_ = &s_a[kk_ * 8 + x0_];
                            const double* restrict b_ = &s_b[kk_ * 8 + y0_];
                            r0_0_ += a_[0] * b_[0]; r0_1_ += a_[0] * b_[1]; r0_2_ += a_[0] * b_[2]; r0_3_ += a_[0] * b_[3]; r0_4_ += a_[0] * b_[4]; r0_5_ += a_[0] * b_[5]; r0_6_ += a_[0] * b_[6]; r0_7_ += a_[0] * b_[7];
                            r1_0_ += a_[1] * b_[0]; r1_1_ += a_[1] * b_[1]; r1_2_ += a_[1] * b_[2]; r1_3_ += a_[1] * b_[3]; r1_4_ += a_[1] * b_[4]; r1_5_ += a_[1] * b_[5]; r1_6_ += a_[1] * b_[6]; r1_7_ += a_[1] * b_[7];
                            r2_0_ += a_[2] * b_[0]; r2_1_ += a_[2] * b_[1]; r2_2_ += a_[2] * b_[2]; r2_3_ += a_[2] * b_[3]; r2_4_ += a_[2] * b_[4]; r2_5_ += a_[2] * b_[5]; r2_6_ += a_[2] * b_[6]; r2_7_ += a_[2] * b_[7];
                            r3_0_ += a_[3] * b_[0]; r3_1_ += a_[3] * b_[1]; r3_2_ += a_[3] * b_[2]; r3_3_ += a_[3] * b_[3]; r3_4_ += a_[3] * b_[4]; r3_5_ += a_[3] * b_[5]; r3_6_ += a_[3] * b_[6]; r3_7_ += a_[3] * b_[7];
                        }
                        c_blk_[0] = r0_0_; c_blk_[1] = r0_1_; c_blk_[2] = r0_2_; c_blk_[3] = r0_3_; c_blk_[4] = r0_4_; c_blk_[5] = r0_5_; c_blk_[6] = r0_6_; c_blk_[7] = r0_7_;
                        c_blk_[8] = r1_0_; c_blk_[9] = r1_1_; c_blk_[10] = r1_2_; c_blk_[11] = r1_3_; c_blk_[12] = r1_4_; c_blk_[13] = r1_5_; c_blk_[14] = r1_6_; c_blk_[15] = r1_7_;
                        c_blk_[16] = r2_0_; c_blk_[17] = r2_1_; c_blk_[18] = r2_2_; c_blk_[19] = r2_3_; c_blk_[20] = r2_4_; c_blk_[21] = r2_5_; c_blk_[22] = r2_6_; c_blk_[23] = r2_7_;
                        c_blk_[24] = r3_0_; c_blk_[25] = r3_1_; c_blk_[26] = r3_2_; c_blk_[27] = r3_3_; c_blk_[28] = r3_4_; c_blk_[29] = r3_5_; c_blk_[30] = r3_6_; c_blk_[31] = r3_7_;
                    }
                }
            }
            const long c_base_ = (long)boff_a * st_C_a + (long)boff_b * st_C_b;
            for (int x_ = 0; x_ < 8; ++x_) {
                const int tx_ = x_ % 8;
                const int rx_ = x_ / 8;
                int remtx_ = tx_;
                const int tc_a = remtx_ % 8;
                (void)remtx_;
                int remrx_ = rx_;
                (void)remrx_;
                row_off_[x_] = (long)tc_a * st_C_a;
                row_ok_[x_] = (boff_a + tc_a < n_a);
            }
            for (int y_ = 0; y_ < 8; ++y_) {
                const int ty_ = y_ % 8;
                const int ry_ = y_ / 8;
                int remty_ = ty_;
                const int tc_b = remty_ % 8;
                (void)remty_;
                int remry_ = ry_;
                (void)remry_;
                if (!((boff_b + tc_b < n_b))) continue;
                double* restrict c_col_ = &g_C[c_base_ + (long)tc_b * st_C_b];
                for (int x_ = 0; x_ < 8; ++x_)
                    if (row_ok_[x_])
                        c_col_[row_off_[x_]] = c_tile_[(long)x_ * 8 + y_];
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
