#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#endif

static void put_(double* restrict d_, const double* restrict s_, long n_)
{
    if (n_ & 16) { memcpy(d_, s_, sizeof(double) * 16); d_ += 16; s_ += 16; }
    if (n_ & 8) { memcpy(d_, s_, sizeof(double) * 8); d_ += 8; s_ += 8; }
    if (n_ & 4) { memcpy(d_, s_, sizeof(double) * 4); d_ += 4; s_ += 4; }
    if (n_ & 2) { memcpy(d_, s_, sizeof(double) * 2); d_ += 2; s_ += 2; }
    if (n_ & 1) *d_ = *s_;
}

static void pack_(double* restrict dst_, const double* src_,
                  const long* row_, long first_, long count_, long rows_,
                  const long* k_, long kp_, long r_)
{
    for (long s_ = 0; s_ < count_; s_ += r_) {
        double* restrict d_ = dst_ + s_ * kp_;
        const long* at_ = row_ + first_ + s_;
        const long in_ = rows_ - first_ - s_;
        int run_ = in_ >= r_;
        for (long i_ = 1; run_ && i_ < r_; ++i_)
            run_ = at_[i_] == at_[0] + i_;
        if (run_) {
            const double* s0_ = src_ + at_[0];
            for (long p_ = 0; p_ < kp_; ++p_, d_ += r_)
                put_(d_, s0_ + k_[p_], r_);
        } else {
            for (long p_ = 0; p_ < kp_; ++p_, d_ += r_)
                for (long i_ = 0; i_ < r_; ++i_)
                    d_[i_] = i_ < in_ ? src_[at_[i_] + k_[p_]] : (double)0;
        }
    }
}

__attribute__((noinline)) static void micro_(long kp_,
    const double* restrict a_, const double* restrict b_, double* restrict t_)
{
    double r0_0_ = 0; double r1_0_ = 0; double r2_0_ = 0; double r3_0_ = 0;
    double r4_0_ = 0; double r5_0_ = 0; double r6_0_ = 0; double r7_0_ = 0;
    double r8_0_ = 0; double r9_0_ = 0; double r10_0_ = 0; double r11_0_ = 0;
    double r12_0_ = 0; double r13_0_ = 0; double r14_0_ = 0; double r15_0_ = 0;
    double r0_1_ = 0; double r1_1_ = 0; double r2_1_ = 0; double r3_1_ = 0;
    double r4_1_ = 0; double r5_1_ = 0; double r6_1_ = 0; double r7_1_ = 0;
    double r8_1_ = 0; double r9_1_ = 0; double r10_1_ = 0; double r11_1_ = 0;
    double r12_1_ = 0; double r13_1_ = 0; double r14_1_ = 0; double r15_1_ = 0;
    double r0_2_ = 0; double r1_2_ = 0; double r2_2_ = 0; double r3_2_ = 0;
    double r4_2_ = 0; double r5_2_ = 0; double r6_2_ = 0; double r7_2_ = 0;
    double r8_2_ = 0; double r9_2_ = 0; double r10_2_ = 0; double r11_2_ = 0;
    double r12_2_ = 0; double r13_2_ = 0; double r14_2_ = 0; double r15_2_ = 0;
    double r0_3_ = 0; double r1_3_ = 0; double r2_3_ = 0; double r3_3_ = 0;
    double r4_3_ = 0; double r5_3_ = 0; double r6_3_ = 0; double r7_3_ = 0;
    double r8_3_ = 0; double r9_3_ = 0; double r10_3_ = 0; double r11_3_ = 0;
    double r12_3_ = 0; double r13_3_ = 0; double r14_3_ = 0; double r15_3_ = 0;
    for (long p_ = 0; p_ < kp_; ++p_, a_ += 16, b_ += 4) {
        r0_0_ += a_[0] * b_[0]; r1_0_ += a_[1] * b_[0]; r2_0_ += a_[2] * b_[0]; r3_0_ += a_[3] * b_[0];
        r4_0_ += a_[4] * b_[0]; r5_0_ += a_[5] * b_[0]; r6_0_ += a_[6] * b_[0]; r7_0_ += a_[7] * b_[0];
        r8_0_ += a_[8] * b_[0]; r9_0_ += a_[9] * b_[0]; r10_0_ += a_[10] * b_[0]; r11_0_ += a_[11] * b_[0];
        r12_0_ += a_[12] * b_[0]; r13_0_ += a_[13] * b_[0]; r14_0_ += a_[14] * b_[0]; r15_0_ += a_[15] * b_[0];
        r0_1_ += a_[0] * b_[1]; r1_1_ += a_[1] * b_[1]; r2_1_ += a_[2] * b_[1]; r3_1_ += a_[3] * b_[1];
        r4_1_ += a_[4] * b_[1]; r5_1_ += a_[5] * b_[1]; r6_1_ += a_[6] * b_[1]; r7_1_ += a_[7] * b_[1];
        r8_1_ += a_[8] * b_[1]; r9_1_ += a_[9] * b_[1]; r10_1_ += a_[10] * b_[1]; r11_1_ += a_[11] * b_[1];
        r12_1_ += a_[12] * b_[1]; r13_1_ += a_[13] * b_[1]; r14_1_ += a_[14] * b_[1]; r15_1_ += a_[15] * b_[1];
        r0_2_ += a_[0] * b_[2]; r1_2_ += a_[1] * b_[2]; r2_2_ += a_[2] * b_[2]; r3_2_ += a_[3] * b_[2];
        r4_2_ += a_[4] * b_[2]; r5_2_ += a_[5] * b_[2]; r6_2_ += a_[6] * b_[2]; r7_2_ += a_[7] * b_[2];
        r8_2_ += a_[8] * b_[2]; r9_2_ += a_[9] * b_[2]; r10_2_ += a_[10] * b_[2]; r11_2_ += a_[11] * b_[2];
        r12_2_ += a_[12] * b_[2]; r13_2_ += a_[13] * b_[2]; r14_2_ += a_[14] * b_[2]; r15_2_ += a_[15] * b_[2];
        r0_3_ += a_[0] * b_[3]; r1_3_ += a_[1] * b_[3]; r2_3_ += a_[2] * b_[3]; r3_3_ += a_[3] * b_[3];
        r4_3_ += a_[4] * b_[3]; r5_3_ += a_[5] * b_[3]; r6_3_ += a_[6] * b_[3]; r7_3_ += a_[7] * b_[3];
        r8_3_ += a_[8] * b_[3]; r9_3_ += a_[9] * b_[3]; r10_3_ += a_[10] * b_[3]; r11_3_ += a_[11] * b_[3];
        r12_3_ += a_[12] * b_[3]; r13_3_ += a_[13] * b_[3]; r14_3_ += a_[14] * b_[3]; r15_3_ += a_[15] * b_[3];
    }
    t_[0] = r0_0_; t_[1] = r1_0_; t_[2] = r2_0_; t_[3] = r3_0_;
    t_[4] = r4_0_; t_[5] = r5_0_; t_[6] = r6_0_; t_[7] = r7_0_;
    t_[8] = r8_0_; t_[9] = r9_0_; t_[10] = r10_0_; t_[11] = r11_0_;
    t_[12] = r12_0_; t_[13] = r13_0_; t_[14] = r14_0_; t_[15] = r15_0_;
    t_[16] = r0_1_; t_[17] = r1_1_; t_[18] = r2_1_; t_[19] = r3_1_;
    t_[20] = r4_1_; t_[21] = r5_1_; t_[22] = r6_1_; t_[23] = r7_1_;
    t_[24] = r8_1_; t_[25] = r9_1_; t_[26] = r10_1_; t_[27] = r11_1_;
    t_[28] = r12_1_; t_[29] = r13_1_; t_[30] = r14_1_; t_[31] = r15_1_;
    t_[32] = r0_2_; t_[33] = r1_2_; t_[34] = r2_2_; t_[35] = r3_2_;
    t_[36] = r4_2_; t_[37] = r5_2_; t_[38] = r6_2_; t_[39] = r7_2_;
    t_[40] = r8_2_; t_[41] = r9_2_; t_[42] = r10_2_; t_[43] = r11_2_;
    t_[44] = r12_2_; t_[45] = r13_2_; t_[46] = r14_2_; t_[47] = r15_2_;
    t_[48] = r0_3_; t_[49] = r1_3_; t_[50] = r2_3_; t_[51] = r3_3_;
    t_[52] = r4_3_; t_[53] = r5_3_; t_[54] = r6_3_; t_[55] = r7_3_;
    t_[56] = r8_3_; t_[57] = r9_3_; t_[58] = r10_3_; t_[59] = r11_3_;
    t_[60] = r12_3_; t_[61] = r13_3_; t_[62] = r14_3_; t_[63] = r15_3_;
}

static int gett_(double* restrict c_, const double* x_, const double* y_,
                 const long* xm_, const long* cm_, long nm_,
                 const long* yn_, const long* cn_, long nn_,
                 const long* xk_, const long* yk_, long kp_)
{
    #ifdef _OPENMP
    const long threads_ = omp_get_max_threads();
    #else
    const long threads_ = 1;
    #endif
    const long mp_ = (nm_ + 15) / 16 * 16;
    const long np_ = (nn_ + 3) / 4 * 4;
    long mb_ = 262144L / ((long)sizeof(double) * kp_) / 16 * 16;
    long nb_ = 1048576L / ((long)sizeof(double) * kp_) / 4 * 4;
    const long share_ = (mp_ / 16 + threads_ - 1) / threads_ * 16;
    if (mb_ > share_) mb_ = share_;
    if (mb_ < 16) mb_ = 16;
    if (mb_ > mp_) mb_ = mp_;
    if (nb_ < 4) nb_ = 4;
    if (nb_ > np_) nb_ = np_;
    const long nmb_ = (mp_ + mb_ - 1) / mb_;
    const long blocks_ = nmb_ * ((np_ + nb_ - 1) / nb_);
    long* runs_ = (long*)malloc(sizeof(long) * nm_);
    if (!runs_) return 1;
    runs_[nm_ - 1] = 1;
    for (long m_ = nm_ - 2; m_ >= 0; --m_)
        runs_[m_] = cm_[m_ + 1] == cm_[m_] + 1 ? runs_[m_ + 1] + 1 : 1;
    int failed_ = 0;
    #pragma omp parallel
    {
        double* xp_ = (double*)malloc(sizeof(double) * mb_ * kp_);
        double* yp_ = (double*)malloc(sizeof(double) * nb_ * kp_);
        if (!xp_ || !yp_) {
            #pragma omp atomic write
            failed_ = 1;
        }
        #pragma omp barrier
        const long run_ = failed_ ? 0 : blocks_;
        long packed_ic_ = -1, packed_jc_ = -1;
        #pragma omp for schedule(static)
        for (long blk_ = 0; blk_ < run_; ++blk_) {
            const long ic_ = blk_ % nmb_ * mb_, jc_ = blk_ / nmb_ * nb_;
            const long mc_ = mp_ - ic_ < mb_ ? mp_ - ic_ : mb_;
            const long nc_ = np_ - jc_ < nb_ ? np_ - jc_ : nb_;
            if (ic_ != packed_ic_) {
                pack_(xp_, x_, xm_, ic_, mc_, nm_, xk_, kp_, 16);
                packed_ic_ = ic_;
            }
            if (jc_ != packed_jc_) {
                pack_(yp_, y_, yn_, jc_, nc_, nn_, yk_, kp_, 4);
                packed_jc_ = jc_;
            }
            for (long ir_ = 0; ir_ < mc_; ir_ += 16) {
                for (long jr_ = 0; jr_ < nc_; jr_ += 4) {
                    const long m0_ = ic_ + ir_, n0_ = jc_ + jr_;
                    double t_[64];
                    micro_(kp_, xp_ + ir_ * kp_, yp_ + jr_ * kp_, t_);
                    const long mv_ = nm_ - m0_ < 16 ? nm_ - m0_ : 16;
                    const long nv_ = nn_ - n0_ < 4 ? nn_ - n0_ : 4;
                    for (long i_ = 0, len_; i_ < mv_; i_ += len_) {
                        len_ = runs_[m0_ + i_] < mv_ - i_ ? runs_[m0_ + i_] : mv_ - i_;
                        for (long j_ = 0; j_ < nv_; ++j_)
                            put_(c_ + cm_[m0_ + i_] + cn_[n0_ + j_], t_ + j_ * 16 + i_, len_);
                    }
                }
            }
        }
        free(xp_); free(yp_);
    }
    free(runs_);
    return failed_;
}

int tc_kernel_omp(double* g_C, const double* g_A, const double* g_B, int n_i0, int n_i1, int n_i2, int t_i2, long sb_C_i0, long sb_C_i1, long sb_A_i0, long sb_A_i2, long sb_B_i2, long sb_B_i1)
{
    const long st_C_i0 = sb_C_i0 / (long)sizeof(double);
    const long st_C_i1 = sb_C_i1 / (long)sizeof(double);
    const long st_A_i0 = sb_A_i0 / (long)sizeof(double);
    const long st_A_i2 = sb_A_i2 / (long)sizeof(double);
    const long st_B_i2 = sb_B_i2 / (long)sizeof(double);
    const long st_B_i1 = sb_B_i1 / (long)sizeof(double);
    const int nt_i2 = (n_i2 + t_i2 - 1) / t_i2;
    const int tk_ = t_i2;
    const int nsteps_ = nt_i2;
    const long kp_ = (long)n_i2;
    const long nm_ = (long)n_i1;
    const long nn_ = (long)n_i0;
    long* xk_ = (long*)malloc(sizeof(long) * (2 * kp_ + 2 * nm_ + 2 * nn_));
    if (!xk_) return 2;
    long* yk_ = xk_ + kp_;
    long* xm_ = yk_ + kp_;
    long* cm_ = xm_ + nm_;
    long* yn_ = cm_ + nm_;
    long* cn_ = yn_ + nn_;
    {
        long p_ = 0;
        for (int step_ = 0; step_ < nsteps_; ++step_) {
            int sid_ = step_;
            const int soff_i2 = sid_ * t_i2;
            for (int kk_ = 0; kk_ < tk_; ++kk_) {
                int rem_ = kk_;
                const int g_i2 = soff_i2 + rem_;
                if (g_i2 >= n_i2) continue;
                xk_[p_] = (long)g_i2 * st_B_i2;
                yk_[p_] = (long)g_i2 * st_A_i2;
                ++p_;
            }
        }
    }
    {
        long r_ = 0;
        for (int g_i1 = 0; g_i1 < n_i1; ++g_i1, ++r_) {
            xm_[r_] = (long)g_i1 * st_B_i1;
            cm_[r_] = (long)g_i1 * st_C_i1;
        }
    }
    {
        long r_ = 0;
        for (int g_i0 = 0; g_i0 < n_i0; ++g_i0, ++r_) {
            yn_[r_] = (long)g_i0 * st_A_i0;
            cn_[r_] = (long)g_i0 * st_C_i0;
        }
    }
    const int failed_ = gett_(g_C, g_B, g_A, xm_, cm_, nm_, yn_, cn_, nn_, xk_, yk_, kp_);
    free(xk_);
    return failed_ ? 2 : 0;
}

/* tc_kernel: C[a,b] = A[a,k] * B[k,b]
 * config: TBx=[a:8] TBy=[b:8] TBk=[k:8]
 * indices: i0=a, i1=b, i2=k; compiles as serial C99 without -fopenmp
 */
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
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_k, 8, (long)sizeof(double), (long)sizeof(double) * n_a, (long)sizeof(double), (long)sizeof(double) * n_a, (long)sizeof(double), (long)sizeof(double) * n_k);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[6], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(double), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
