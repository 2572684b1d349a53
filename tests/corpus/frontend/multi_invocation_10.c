int g[8];
int out[48];
long total;

int churn(int k) {
    int a[16]; int b[8]; int s = k;
    for (int j = 0; j < 16; j++) { s = s * 5 + j; a[j] = s % 23; }
    for (int j = 0; j < 8; j++) { s = s + a[j]; b[j] = s + a[j + 8]; }
    return b[k % 8] % 9;
}
int main(int n, int trips) {
    long carry = 1;
    int live = 1;
    int has_extra = 0;
    int* extra = 0;
    int* p = malloc(32);
    for (int j = 0; j < 8; j++) {
        carry = carry * 2 + j; p[j] = carry % 9; g[j] = carry % 7 + 1;

    }
    for (int inv = 0; inv < n; inv++) {
        int t = trips - inv % 2;
        for (int i = 0; i < t; i++) {
            int tmp[4];
            int* q = malloc(16);
            for (int j = 0; j < 4; j++) {
                tmp[j] = g[j] * (i + 1) + inv;
                q[j] = tmp[j] + g[j + 4];
            }
            if (live) { tmp[1] = tmp[1] + p[i % 8]; }
            if (has_extra) { tmp[2] = tmp[2] + extra[i % 4]; }
            out[inv * 8 + i] = tmp[0] + 3 * tmp[1] + 5 * tmp[2] + 7 * tmp[3] + q[i % 4];
            total += tmp[1];
            free(q);
            if (live && i == t - 1) { free(p); }

        }
        if (t > 0) { live = 0; }
        carry = carry * 3 + out[inv * 8];
        if (inv % 2 == 0) { if (live) { free(p); live = 0; } }
    }
    for (int k = 0; k < 48; k++) { carry = carry * 31 + out[k]; }
    printf("%ld %ld\n", carry, total);
    return carry % 100;
}
