#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int tc_kernel_omp(float* g_C, const float* g_A, const float* g_B, int n_i0, int n_i1, int n_i2, int n_i3, int t_i0, int t_i1, int t_i2, int t_i3)
{
    const long st_C_i0 = 1;
    const long st_C_i1 = (long)n_i0;
    const long st_C_i2 = (long)n_i0 * (long)n_i1;
    const long st_A_i0 = 1;
    const long st_A_i3 = (long)n_i0;
    const long st_A_i2 = (long)n_i0 * (long)n_i3;
    const long st_B_i1 = 1;
    const long st_B_i3 = (long)n_i1;
    const int btx_ = t_i0;
    const int bty_ = t_i1;
    const int tk_ = t_i3;
    const int nt_i0 = (n_i0 + t_i0 - 1) / t_i0;
    const int nt_i1 = (n_i1 + t_i1 - 1) / t_i1;
    const int nt_i2 = (n_i2 + t_i2 - 1) / t_i2;
    const int nt_i3 = (n_i3 + t_i3 - 1) / t_i3;
    const long num_blocks_ = (long)nt_i0 * (long)nt_i1 * (long)nt_i2;
    const int nsteps_ = nt_i3;
    int failed_ = 0;
    #pragma omp parallel
    {
        float* s_a = (float*)malloc(sizeof(float) * btx_ * tk_);
        float* s_b = (float*)malloc(sizeof(float) * bty_ * tk_);
        float* c_tile_ = (float*)malloc(sizeof(float) * btx_ * bty_);
        long* row_off_ = (long*)malloc(sizeof(long) * btx_);
        int* row_ok_ = (int*)malloc(sizeof(int) * btx_);
        if (!s_a || !s_b || !c_tile_ || !row_off_ || !row_ok_) {
            #pragma omp atomic write
            failed_ = 1;
        }
        #pragma omp barrier
        const long run_blocks_ = failed_ ? 0 : num_blocks_;
        #pragma omp for schedule(static)
        for (long blk_ = 0; blk_ < run_blocks_; ++blk_) {
            int bid_ = (int)blk_;
            const int boff_i0 = (bid_ % nt_i0) * t_i0;
            bid_ /= nt_i0;
            const int boff_i1 = (bid_ % nt_i1) * t_i1;
            bid_ /= nt_i1;
            const int boff_i2 = bid_ * t_i2;
            memset(c_tile_, 0, sizeof(float) * btx_ * bty_);
            for (int step_ = 0; step_ < nsteps_; ++step_) {
                int sid_ = step_;
                const int soff_i3 = sid_ * t_i3;
                {
                    const int g_i2 = boff_i2 + 0;
                    for (int lc_i3 = 0; lc_i3 < t_i3; lc_i3 += 1) {
                        const int g_i3 = soff_i3 + lc_i3;
                        const long row_at_ = (long)g_i3 * st_A_i3 + (long)g_i2 * st_A_i2;
                        const int row_in_ = (g_i3 < n_i3) && (g_i2 < n_i2);
                        const int row_s_ = (lc_i3) * btx_ + (0);
                        for (int lc_i0 = 0; lc_i0 < t_i0; lc_i0 += 2) {
                            const int g_i0 = boff_i0 + lc_i0;
                            if (row_in_ && (g_i0 < n_i0)) {
                                s_a[(row_s_ + lc_i0) + 0] = g_A[(row_at_ + (long)g_i0 * st_A_i0) + 0];
                                s_a[(row_s_ + lc_i0) + 1] = g_A[(row_at_ + (long)g_i0 * st_A_i0) + 1];
                            } else {
                                s_a[(row_s_ + lc_i0) + 0] = (float)0;
                                s_a[(row_s_ + lc_i0) + 1] = (float)0;
                            }
                        }
                    }
                }
                {
                    for (int lc_i3 = 0; lc_i3 < t_i3; lc_i3 += 1) {
                        const int g_i3 = soff_i3 + lc_i3;
                        const long row_at_ = (long)g_i3 * st_B_i3;
                        const int row_in_ = (g_i3 < n_i3);
                        const int row_s_ = (lc_i3) * bty_ + (0);
                        for (int lc_i1 = 0; lc_i1 < t_i1; lc_i1 += 1) {
                            const int g_i1 = boff_i1 + lc_i1;
                            s_b[row_s_ + lc_i1] = (row_in_ && (g_i1 < n_i1)) ? g_B[row_at_ + (long)g_i1 * st_B_i1] : (float)0;
                        }
                    }
                }
                for (int x0_ = 0; x0_ < btx_; x0_ += 4) {
                    for (int y0_ = 0; y0_ < bty_; y0_ += 4) {
                        float* restrict c_blk_ = &c_tile_[(long)x0_ * bty_ + y0_];
                        float r0_0_ = c_blk_[0]; float r0_1_ = c_blk_[1]; float r0_2_ = c_blk_[2]; float r0_3_ = c_blk_[3];
                        float r1_0_ = c_blk_[bty_ + 0]; float r1_1_ = c_blk_[bty_ + 1]; float r1_2_ = c_blk_[bty_ + 2]; float r1_3_ = c_blk_[bty_ + 3];
                        float r2_0_ = c_blk_[2 * bty_ + 0]; float r2_1_ = c_blk_[2 * bty_ + 1]; float r2_2_ = c_blk_[2 * bty_ + 2]; float r2_3_ = c_blk_[2 * bty_ + 3];
                        float r3_0_ = c_blk_[3 * bty_ + 0]; float r3_1_ = c_blk_[3 * bty_ + 1]; float r3_2_ = c_blk_[3 * bty_ + 2]; float r3_3_ = c_blk_[3 * bty_ + 3];
                        for (int kk_ = 0; kk_ < tk_; ++kk_) {
                            const float* restrict a_ = &s_a[kk_ * btx_ + x0_];
                            const float* restrict b_ = &s_b[kk_ * bty_ + y0_];
                            r0_0_ += a_[0] * b_[0]; r0_1_ += a_[0] * b_[1]; r0_2_ += a_[0] * b_[2]; r0_3_ += a_[0] * b_[3];
                            r1_0_ += a_[1] * b_[0]; r1_1_ += a_[1] * b_[1]; r1_2_ += a_[1] * b_[2]; r1_3_ += a_[1] * b_[3];
                            r2_0_ += a_[2] * b_[0]; r2_1_ += a_[2] * b_[1]; r2_2_ += a_[2] * b_[2]; r2_3_ += a_[2] * b_[3];
                            r3_0_ += a_[3] * b_[0]; r3_1_ += a_[3] * b_[1]; r3_2_ += a_[3] * b_[2]; r3_3_ += a_[3] * b_[3];
                        }
                        c_blk_[0] = r0_0_; c_blk_[1] = r0_1_; c_blk_[2] = r0_2_; c_blk_[3] = r0_3_;
                        c_blk_[bty_ + 0] = r1_0_; c_blk_[bty_ + 1] = r1_1_; c_blk_[bty_ + 2] = r1_2_; c_blk_[bty_ + 3] = r1_3_;
                        c_blk_[2 * bty_ + 0] = r2_0_; c_blk_[2 * bty_ + 1] = r2_1_; c_blk_[2 * bty_ + 2] = r2_2_; c_blk_[2 * bty_ + 3] = r2_3_;
                        c_blk_[3 * bty_ + 0] = r3_0_; c_blk_[3 * bty_ + 1] = r3_1_; c_blk_[3 * bty_ + 2] = r3_2_; c_blk_[3 * bty_ + 3] = r3_3_;
                    }
                }
            }
            const long c_base_ = (long)boff_i0 * st_C_i0 + (long)boff_i1 * st_C_i1 + (long)boff_i2 * st_C_i2;
            {
                int x_ = 0;
                for (int tc_i0 = 0; tc_i0 < t_i0; ++tc_i0, ++x_) {
                    row_off_[x_] = (long)tc_i0 * st_C_i0;
                    row_ok_[x_] = (boff_i0 + tc_i0 < n_i0);
                }
            }
            {
                int y_ = 0;
                for (int tc_i1 = 0; tc_i1 < t_i1; ++tc_i1, ++y_) {
                    if (!((boff_i1 + tc_i1 < n_i1))) continue;
                    float* restrict c_col_ = &g_C[c_base_ + (long)tc_i1 * st_C_i1];
                    for (int x_ = 0; x_ < btx_; ++x_)
                        if (row_ok_[x_])
                            c_col_[row_off_[x_]] = c_tile_[(long)x_ * bty_ + y_];
                }
            }
        }
        free(s_a); free(s_b); free(c_tile_); free(row_off_); free(row_ok_);
    }
    return failed_ ? 2 : 0;
}

/* tc_kernel: C[a,b,c] = A[a,d,c] * B[b,d]
 * config: TBx=[a:4] TBy=[b:4] TBk=[d:3] Blk=[c:1]
 * indices: i0=a, i1=b, i2=c, i3=d; compiles as serial C99 without -fopenmp
 */
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
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_c, n_d, 4, 4, 1, 3);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[7], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(float), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
