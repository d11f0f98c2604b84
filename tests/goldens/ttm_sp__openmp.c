#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#endif

static void put_(float* restrict d_, const float* restrict s_, long n_)
{
    if (n_ & 16) { memcpy(d_, s_, sizeof(float) * 16); d_ += 16; s_ += 16; }
    if (n_ & 8) { memcpy(d_, s_, sizeof(float) * 8); d_ += 8; s_ += 8; }
    if (n_ & 4) { memcpy(d_, s_, sizeof(float) * 4); d_ += 4; s_ += 4; }
    if (n_ & 2) { memcpy(d_, s_, sizeof(float) * 2); d_ += 2; s_ += 2; }
    if (n_ & 1) *d_ = *s_;
}

static void pack_(float* restrict dst_, const float* src_,
                  const long* row_, long first_, long count_, long rows_,
                  const long* k_, long kp_, long r_)
{
    for (long s_ = 0; s_ < count_; s_ += r_) {
        float* restrict d_ = dst_ + s_ * kp_;
        const long* at_ = row_ + first_ + s_;
        const long in_ = rows_ - first_ - s_;
        int run_ = in_ >= r_;
        for (long i_ = 1; run_ && i_ < r_; ++i_)
            run_ = at_[i_] == at_[0] + i_;
        if (run_) {
            const float* s0_ = src_ + at_[0];
            for (long p_ = 0; p_ < kp_; ++p_, d_ += r_)
                put_(d_, s0_ + k_[p_], r_);
        } else {
            for (long p_ = 0; p_ < kp_; ++p_, d_ += r_)
                for (long i_ = 0; i_ < r_; ++i_)
                    d_[i_] = i_ < in_ ? src_[at_[i_] + k_[p_]] : (float)0;
        }
    }
}

__attribute__((noinline)) static void micro_(long kp_,
    const float* restrict a_, const float* restrict b_, float* restrict t_)
{
    float r0_0_ = 0; float r1_0_ = 0; float r2_0_ = 0; float r3_0_ = 0;
    float r4_0_ = 0; float r5_0_ = 0; float r6_0_ = 0; float r7_0_ = 0;
    float r8_0_ = 0; float r9_0_ = 0; float r10_0_ = 0; float r11_0_ = 0;
    float r12_0_ = 0; float r13_0_ = 0; float r14_0_ = 0; float r15_0_ = 0;
    float r0_1_ = 0; float r1_1_ = 0; float r2_1_ = 0; float r3_1_ = 0;
    float r4_1_ = 0; float r5_1_ = 0; float r6_1_ = 0; float r7_1_ = 0;
    float r8_1_ = 0; float r9_1_ = 0; float r10_1_ = 0; float r11_1_ = 0;
    float r12_1_ = 0; float r13_1_ = 0; float r14_1_ = 0; float r15_1_ = 0;
    float r0_2_ = 0; float r1_2_ = 0; float r2_2_ = 0; float r3_2_ = 0;
    float r4_2_ = 0; float r5_2_ = 0; float r6_2_ = 0; float r7_2_ = 0;
    float r8_2_ = 0; float r9_2_ = 0; float r10_2_ = 0; float r11_2_ = 0;
    float r12_2_ = 0; float r13_2_ = 0; float r14_2_ = 0; float r15_2_ = 0;
    float r0_3_ = 0; float r1_3_ = 0; float r2_3_ = 0; float r3_3_ = 0;
    float r4_3_ = 0; float r5_3_ = 0; float r6_3_ = 0; float r7_3_ = 0;
    float r8_3_ = 0; float r9_3_ = 0; float r10_3_ = 0; float r11_3_ = 0;
    float r12_3_ = 0; float r13_3_ = 0; float r14_3_ = 0; float r15_3_ = 0;
    float r0_4_ = 0; float r1_4_ = 0; float r2_4_ = 0; float r3_4_ = 0;
    float r4_4_ = 0; float r5_4_ = 0; float r6_4_ = 0; float r7_4_ = 0;
    float r8_4_ = 0; float r9_4_ = 0; float r10_4_ = 0; float r11_4_ = 0;
    float r12_4_ = 0; float r13_4_ = 0; float r14_4_ = 0; float r15_4_ = 0;
    float r0_5_ = 0; float r1_5_ = 0; float r2_5_ = 0; float r3_5_ = 0;
    float r4_5_ = 0; float r5_5_ = 0; float r6_5_ = 0; float r7_5_ = 0;
    float r8_5_ = 0; float r9_5_ = 0; float r10_5_ = 0; float r11_5_ = 0;
    float r12_5_ = 0; float r13_5_ = 0; float r14_5_ = 0; float r15_5_ = 0;
    float r0_6_ = 0; float r1_6_ = 0; float r2_6_ = 0; float r3_6_ = 0;
    float r4_6_ = 0; float r5_6_ = 0; float r6_6_ = 0; float r7_6_ = 0;
    float r8_6_ = 0; float r9_6_ = 0; float r10_6_ = 0; float r11_6_ = 0;
    float r12_6_ = 0; float r13_6_ = 0; float r14_6_ = 0; float r15_6_ = 0;
    float r0_7_ = 0; float r1_7_ = 0; float r2_7_ = 0; float r3_7_ = 0;
    float r4_7_ = 0; float r5_7_ = 0; float r6_7_ = 0; float r7_7_ = 0;
    float r8_7_ = 0; float r9_7_ = 0; float r10_7_ = 0; float r11_7_ = 0;
    float r12_7_ = 0; float r13_7_ = 0; float r14_7_ = 0; float r15_7_ = 0;
    for (long p_ = 0; p_ < kp_; ++p_, a_ += 16, b_ += 8) {
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
        r0_4_ += a_[0] * b_[4]; r1_4_ += a_[1] * b_[4]; r2_4_ += a_[2] * b_[4]; r3_4_ += a_[3] * b_[4];
        r4_4_ += a_[4] * b_[4]; r5_4_ += a_[5] * b_[4]; r6_4_ += a_[6] * b_[4]; r7_4_ += a_[7] * b_[4];
        r8_4_ += a_[8] * b_[4]; r9_4_ += a_[9] * b_[4]; r10_4_ += a_[10] * b_[4]; r11_4_ += a_[11] * b_[4];
        r12_4_ += a_[12] * b_[4]; r13_4_ += a_[13] * b_[4]; r14_4_ += a_[14] * b_[4]; r15_4_ += a_[15] * b_[4];
        r0_5_ += a_[0] * b_[5]; r1_5_ += a_[1] * b_[5]; r2_5_ += a_[2] * b_[5]; r3_5_ += a_[3] * b_[5];
        r4_5_ += a_[4] * b_[5]; r5_5_ += a_[5] * b_[5]; r6_5_ += a_[6] * b_[5]; r7_5_ += a_[7] * b_[5];
        r8_5_ += a_[8] * b_[5]; r9_5_ += a_[9] * b_[5]; r10_5_ += a_[10] * b_[5]; r11_5_ += a_[11] * b_[5];
        r12_5_ += a_[12] * b_[5]; r13_5_ += a_[13] * b_[5]; r14_5_ += a_[14] * b_[5]; r15_5_ += a_[15] * b_[5];
        r0_6_ += a_[0] * b_[6]; r1_6_ += a_[1] * b_[6]; r2_6_ += a_[2] * b_[6]; r3_6_ += a_[3] * b_[6];
        r4_6_ += a_[4] * b_[6]; r5_6_ += a_[5] * b_[6]; r6_6_ += a_[6] * b_[6]; r7_6_ += a_[7] * b_[6];
        r8_6_ += a_[8] * b_[6]; r9_6_ += a_[9] * b_[6]; r10_6_ += a_[10] * b_[6]; r11_6_ += a_[11] * b_[6];
        r12_6_ += a_[12] * b_[6]; r13_6_ += a_[13] * b_[6]; r14_6_ += a_[14] * b_[6]; r15_6_ += a_[15] * b_[6];
        r0_7_ += a_[0] * b_[7]; r1_7_ += a_[1] * b_[7]; r2_7_ += a_[2] * b_[7]; r3_7_ += a_[3] * b_[7];
        r4_7_ += a_[4] * b_[7]; r5_7_ += a_[5] * b_[7]; r6_7_ += a_[6] * b_[7]; r7_7_ += a_[7] * b_[7];
        r8_7_ += a_[8] * b_[7]; r9_7_ += a_[9] * b_[7]; r10_7_ += a_[10] * b_[7]; r11_7_ += a_[11] * b_[7];
        r12_7_ += a_[12] * b_[7]; r13_7_ += a_[13] * b_[7]; r14_7_ += a_[14] * b_[7]; r15_7_ += a_[15] * b_[7];
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
    t_[64] = r0_4_; t_[65] = r1_4_; t_[66] = r2_4_; t_[67] = r3_4_;
    t_[68] = r4_4_; t_[69] = r5_4_; t_[70] = r6_4_; t_[71] = r7_4_;
    t_[72] = r8_4_; t_[73] = r9_4_; t_[74] = r10_4_; t_[75] = r11_4_;
    t_[76] = r12_4_; t_[77] = r13_4_; t_[78] = r14_4_; t_[79] = r15_4_;
    t_[80] = r0_5_; t_[81] = r1_5_; t_[82] = r2_5_; t_[83] = r3_5_;
    t_[84] = r4_5_; t_[85] = r5_5_; t_[86] = r6_5_; t_[87] = r7_5_;
    t_[88] = r8_5_; t_[89] = r9_5_; t_[90] = r10_5_; t_[91] = r11_5_;
    t_[92] = r12_5_; t_[93] = r13_5_; t_[94] = r14_5_; t_[95] = r15_5_;
    t_[96] = r0_6_; t_[97] = r1_6_; t_[98] = r2_6_; t_[99] = r3_6_;
    t_[100] = r4_6_; t_[101] = r5_6_; t_[102] = r6_6_; t_[103] = r7_6_;
    t_[104] = r8_6_; t_[105] = r9_6_; t_[106] = r10_6_; t_[107] = r11_6_;
    t_[108] = r12_6_; t_[109] = r13_6_; t_[110] = r14_6_; t_[111] = r15_6_;
    t_[112] = r0_7_; t_[113] = r1_7_; t_[114] = r2_7_; t_[115] = r3_7_;
    t_[116] = r4_7_; t_[117] = r5_7_; t_[118] = r6_7_; t_[119] = r7_7_;
    t_[120] = r8_7_; t_[121] = r9_7_; t_[122] = r10_7_; t_[123] = r11_7_;
    t_[124] = r12_7_; t_[125] = r13_7_; t_[126] = r14_7_; t_[127] = r15_7_;
}

static int gett_(float* restrict c_, const float* x_, const float* y_,
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
    const long np_ = (nn_ + 7) / 8 * 8;
    long mb_ = 262144L / ((long)sizeof(float) * kp_) / 16 * 16;
    long nb_ = 1048576L / ((long)sizeof(float) * kp_) / 8 * 8;
    const long share_ = (mp_ / 16 + threads_ - 1) / threads_ * 16;
    if (mb_ > share_) mb_ = share_;
    if (mb_ < 16) mb_ = 16;
    if (mb_ > mp_) mb_ = mp_;
    if (nb_ < 8) nb_ = 8;
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
        float* xp_ = (float*)malloc(sizeof(float) * mb_ * kp_);
        float* yp_ = (float*)malloc(sizeof(float) * nb_ * kp_);
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
                pack_(yp_, y_, yn_, jc_, nc_, nn_, yk_, kp_, 8);
                packed_jc_ = jc_;
            }
            for (long ir_ = 0; ir_ < mc_; ir_ += 16) {
                for (long jr_ = 0; jr_ < nc_; jr_ += 8) {
                    const long m0_ = ic_ + ir_, n0_ = jc_ + jr_;
                    float t_[128];
                    micro_(kp_, xp_ + ir_ * kp_, yp_ + jr_ * kp_, t_);
                    const long mv_ = nm_ - m0_ < 16 ? nm_ - m0_ : 16;
                    const long nv_ = nn_ - n0_ < 8 ? nn_ - n0_ : 8;
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

int tc_kernel_omp(float* g_C, const float* g_A, const float* g_B, int n_i0, int n_i1, int n_i2, int n_i3, int t_i3, long sb_C_i0, long sb_C_i1, long sb_C_i2, long sb_A_i0, long sb_A_i3, long sb_A_i2, long sb_B_i1, long sb_B_i3)
{
    const long st_C_i0 = sb_C_i0 / (long)sizeof(float);
    const long st_C_i1 = sb_C_i1 / (long)sizeof(float);
    const long st_C_i2 = sb_C_i2 / (long)sizeof(float);
    const long st_A_i0 = sb_A_i0 / (long)sizeof(float);
    const long st_A_i3 = sb_A_i3 / (long)sizeof(float);
    const long st_A_i2 = sb_A_i2 / (long)sizeof(float);
    const long st_B_i1 = sb_B_i1 / (long)sizeof(float);
    const long st_B_i3 = sb_B_i3 / (long)sizeof(float);
    const int nt_i3 = (n_i3 + t_i3 - 1) / t_i3;
    const int tk_ = t_i3;
    const int nsteps_ = nt_i3;
    const long kp_ = (long)n_i3;
    const long nm_ = (long)n_i0 * (long)n_i2;
    const long nn_ = (long)n_i1;
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
            const int soff_i3 = sid_ * t_i3;
            for (int kk_ = 0; kk_ < tk_; ++kk_) {
                int rem_ = kk_;
                const int g_i3 = soff_i3 + rem_;
                if (g_i3 >= n_i3) continue;
                xk_[p_] = (long)g_i3 * st_A_i3;
                yk_[p_] = (long)g_i3 * st_B_i3;
                ++p_;
            }
        }
    }
    {
        long r_ = 0;
        for (int g_i0 = 0; g_i0 < n_i0; ++g_i0) {
            for (int g_i2 = 0; g_i2 < n_i2; ++g_i2, ++r_) {
                xm_[r_] = (long)g_i0 * st_A_i0 + (long)g_i2 * st_A_i2;
                cm_[r_] = (long)g_i0 * st_C_i0 + (long)g_i2 * st_C_i2;
            }
        }
    }
    {
        long r_ = 0;
        for (int g_i1 = 0; g_i1 < n_i1; ++g_i1, ++r_) {
            yn_[r_] = (long)g_i1 * st_B_i1;
            cn_[r_] = (long)g_i1 * st_C_i1;
        }
    }
    const int failed_ = gett_(g_C, g_A, g_B, xm_, cm_, nm_, yn_, cn_, nn_, xk_, yk_, kp_);
    free(xk_);
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
    const int status_ = tc_kernel_omp(C_, A_, B_, n_a, n_b, n_c, n_d, 3, (long)sizeof(float), (long)sizeof(float) * n_a, (long)sizeof(float) * n_a * n_b, (long)sizeof(float), (long)sizeof(float) * n_a, (long)sizeof(float) * n_a * n_d, (long)sizeof(float), (long)sizeof(float) * n_b);
    if (status_ != 0) return status_;
    FILE* fc = fopen(argv[7], "wb");
    if (!fc) return 5;
    if (fwrite(C_, sizeof(float), elems_c, fc) != (size_t)elems_c) return 6;
    fclose(fc);
    free(A_); free(B_); free(C_);
    return 0;
}
