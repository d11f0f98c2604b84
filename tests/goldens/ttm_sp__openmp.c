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
                for (long l_ = 0; l_ < 12; l_ += 2) {
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
                for (long l_ = 0; l_ < 12; ++l_) {
                    int rem_ = l_;
                    const int lc_b = rem_ % 4;
                    rem_ /= 4;
                    const int lc_d = rem_ % 3;
                    (void)rem_;
                    const int g_b = boff_b + lc_b;
                    const int g_d = soff_d + lc_d;
                    s_b[(lc_d) * 4 + (lc_b)] = ((g_b < n_b) && (g_d < n_d)) ? g_B[(long)g_b * st_B_b + (long)g_d * st_B_d] : (float)0;
                }
                for (int kk_ = 0; kk_ < 3; ++kk_) {
                    const float* restrict a_col_ = &s_a[kk_ * 4];
                    const float* restrict b_col_ = &s_b[kk_ * 4];
                    for (int x_ = 0; x_ < 4; ++x_) {
                        const float a_x_ = a_col_[x_];
                        float* restrict c_row_ = &c_tile_[(long)x_ * 4];
                        for (int y_ = 0; y_ < 4; ++y_)
                            c_row_[y_] += a_x_ * b_col_[y_];
                    }
                }
            }
            for (int x_ = 0; x_ < 4; ++x_) {
                const int tx_ = x_ % 4;
                const int rx_ = x_ / 4;
                for (int y_ = 0; y_ < 4; ++y_) {
                    const int ty_ = y_ % 4;
                    const int ry_ = y_ / 4;
                    int remtx_ = tx_;
                    const int tc_a = remtx_ % 4;
                    (void)remtx_;
                    int remty_ = ty_;
                    const int tc_b = remty_ % 4;
                    (void)remty_;
                    int remrx_ = rx_;
                    (void)remrx_;
                    int remry_ = ry_;
                    (void)remry_;
                    const int gc_a = boff_a + tc_a;
                    const int gc_b = boff_b + tc_b;
                    const int gc_c = boff_c + 0;
                    if ((gc_a < n_a) && (gc_b < n_b) && (gc_c < n_c)) {
                        g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b + (long)gc_c * st_C_c] = c_tile_[(long)x_ * 4 + y_];
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
