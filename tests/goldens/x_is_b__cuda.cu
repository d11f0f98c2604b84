// Generated by COGENT-repro (CGO 2019 reproduction).
// contraction : C[a,b,c,d,e,f] = A[g,f,e,c] * B[a,b,d,g]
// config      : TBx=[a:4] TBy=[f:2] TBk=[g:3] REGx=[b:2] REGy=[c:2] Blk=[d:1, e:1]
// threads     : 4 x 2, register tile 2 x 2
// shared mem  : 288 bytes, ~40 regs/thread
extern "C" __global__ void tc_kernel(double* __restrict__ g_C, const double* __restrict__ g_A, const double* __restrict__ g_B, int n_a, int n_b, int n_c, int n_d, int n_e, int n_f, int n_g)
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

    // block-id decomposition into output-tile offsets
    int bid_ = blockIdx.x;
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

    const int tx_ = threadIdx.x;
    const int ty_ = threadIdx.y;
    const int tid_ = tx_ + 4 * ty_;

    __shared__ double s_a[24];
    __shared__ double s_b[12];
    double r_c[4];
    double r_a[2];
    double r_b[2];
    for (int i_ = 0; i_ < 4; ++i_) r_c[i_] = (double)0;

    const int nsteps_ = nt_g;
    for (int step_ = 0; step_ < nsteps_; ++step_) {
        int sid_ = step_;
        const int soff_g = sid_ * 3;
        // stage B tile (24 elements)
        for (int l_ = tid_; l_ < 24; l_ += 8) {
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
        // stage A tile (12 elements)
        for (int l_ = tid_; l_ < 12; l_ += 8) {
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
        __syncthreads();
        // outer-product accumulation over the staged contraction tile
        for (int kk_ = 0; kk_ < 3; ++kk_) {
            #pragma unroll
            for (int rx_ = 0; rx_ < 2; ++rx_)
                r_a[rx_] = s_a[kk_ * 8 + rx_ * 4 + tx_];
            #pragma unroll
            for (int ry_ = 0; ry_ < 2; ++ry_)
                r_b[ry_] = s_b[kk_ * 4 + ry_ * 2 + ty_];
            #pragma unroll
            for (int rx_ = 0; rx_ < 2; ++rx_)
                #pragma unroll
                for (int ry_ = 0; ry_ < 2; ++ry_)
                    r_c[rx_ * 2 + ry_] += r_a[rx_] * r_b[ry_];
        }
        __syncthreads();
    }

    // store the register tile of the output
    int remtx_ = tx_;
    const int tc_a = remtx_ % 4;
    (void)remtx_;
    int remty_ = ty_;
    const int tc_f = remty_ % 2;
    (void)remty_;
    for (int ry_ = 0; ry_ < 2; ++ry_) {
        for (int rx_ = 0; rx_ < 2; ++rx_) {
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
                g_C[(long)gc_a * st_C_a + (long)gc_b * st_C_b + (long)gc_c * st_C_c + (long)gc_d * st_C_d + (long)gc_e * st_C_e + (long)gc_f * st_C_f] = r_c[rx_ * 2 + ry_];
            }
        }
    }
}
