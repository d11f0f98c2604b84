/* Generated by COGENT-repro: OpenMP-C CPU backend for
 * C[a,b,c] = A[a,d,c] * B[b,d]
 * config: TBx=[a:4] TBy=[b:4] TBk=[d:3] Blk=[c:1]
 * (compiles as serial C99 when built without -fopenmp)
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int tc_kernel_omp(float* g_C, const float* g_A, const float* g_B, int n_a, int n_b, int n_c, int n_d)
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
    const long num_blocks_ = (long)nt_a * (long)nt_b * (long)nt_c;
    const int nsteps_ = nt_d;
    int failed_ = 0;
    #pragma omp parallel
    {
        float* s_a = (float*)malloc(sizeof(float) * 12);
        float* s_b = (float*)malloc(sizeof(float) * 12);
        float* c_tile_ = (float*)malloc(sizeof(float) * 16);
        if (!s_a || !s_b || !c_tile_) {
            #pragma omp atomic write
            failed_ = 1;
        }
        #pragma omp barrier
        long row_off_[4];
        int row_ok_[4];
        const long run_blocks_ = failed_ ? 0 : num_blocks_;
        #pragma omp for schedule(static)
        for (long blk_ = 0; blk_ < run_blocks_; ++blk_) {
            int bid_ = (int)blk_;
            const int boff_a = (bid_ % nt_a) * 4;
            bid_ /= nt_a;
            const int boff_b = (bid_ % nt_b) * 4;
            bid_ /= nt_b;
            const int boff_c = bid_ * 1;
            memset(c_tile_, 0, sizeof(float) * 16);
            for (int step_ = 0; step_ < nsteps_; ++step_) {
                int sid_ = step_;
                const int soff_d = sid_ * 3;
                {
                    const int g_c = boff_c + 0;
                    for (int lc_d = 0; lc_d < 3; lc_d += 1) {
                        const int g_d = soff_d + lc_d;
                        const long row_at_ = (long)g_d * st_A_d + (long)g_c * st_A_c;
                        const int row_in_ = (g_d < n_d) && (g_c < n_c);
                        for (int lc_a = 0; lc_a < 4; lc_a += 2) {
                            const int g_a = boff_a + lc_a;
                            if (row_in_ && (g_a < n_a)) {
                                s_a[((lc_d) * 4 + (lc_a)) + 0] = g_A[(row_at_ + (long)g_a * st_A_a) + 0];
                                s_a[((lc_d) * 4 + (lc_a)) + 1] = g_A[(row_at_ + (long)g_a * st_A_a) + 1];
                            } else {
                                s_a[((lc_d) * 4 + (lc_a)) + 0] = (float)0;
                                s_a[((lc_d) * 4 + (lc_a)) + 1] = (float)0;
                            }
                        }
                    }
                }
                {
                    for (int lc_d = 0; lc_d < 3; lc_d += 1) {
                        const int g_d = soff_d + lc_d;
                        const long row_at_ = (long)g_d * st_B_d;
                        const int row_in_ = (g_d < n_d);
                        for (int lc_b = 0; lc_b < 4; lc_b += 1) {
                            const int g_b = boff_b + lc_b;
                            s_b[(lc_d) * 4 + (lc_b)] = (row_in_ && (g_b < n_b)) ? g_B[row_at_ + (long)g_b * st_B_b] : (float)0;
                        }
                    }
                }
                for (int x0_ = 0; x0_ < 4; x0_ += 4) {
                    for (int y0_ = 0; y0_ < 4; y0_ += 4) {
                        float* restrict c_blk_ = &c_tile_[(long)x0_ * 4 + y0_];
                        float r0_0_ = c_blk_[0]; float r0_1_ = c_blk_[1]; float r0_2_ = c_blk_[2]; float r0_3_ = c_blk_[3];
                        float r1_0_ = c_blk_[4]; float r1_1_ = c_blk_[5]; float r1_2_ = c_blk_[6]; float r1_3_ = c_blk_[7];
                        float r2_0_ = c_blk_[8]; float r2_1_ = c_blk_[9]; float r2_2_ = c_blk_[10]; float r2_3_ = c_blk_[11];
                        float r3_0_ = c_blk_[12]; float r3_1_ = c_blk_[13]; float r3_2_ = c_blk_[14]; float r3_3_ = c_blk_[15];
                        for (int kk_ = 0; kk_ < 3; ++kk_) {
                            const float* restrict a_ = &s_a[kk_ * 4 + x0_];
                            const float* restrict b_ = &s_b[kk_ * 4 + y0_];
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
            const long c_base_ = (long)boff_a * st_C_a + (long)boff_b * st_C_b + (long)boff_c * st_C_c;
            for (int x_ = 0; x_ < 4; ++x_) {
                const int tx_ = x_ % 4;
                const int rx_ = x_ / 4;
                int remtx_ = tx_;
                const int tc_a = remtx_ % 4;
                (void)remtx_;
                int remrx_ = rx_;
                (void)remrx_;
                row_off_[x_] = (long)tc_a * st_C_a;
                row_ok_[x_] = (boff_a + tc_a < n_a);
            }
            for (int y_ = 0; y_ < 4; ++y_) {
                const int ty_ = y_ % 4;
                const int ry_ = y_ / 4;
                int remty_ = ty_;
                const int tc_b = remty_ % 4;
                (void)remty_;
                int remry_ = ry_;
                (void)remry_;
                if (!((boff_b + tc_b < n_b))) continue;
                float* restrict c_col_ = &g_C[c_base_ + (long)tc_b * st_C_b];
                for (int x_ = 0; x_ < 4; ++x_)
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
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_c, n_d);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[7], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(float), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
