long r0[7];
int main(int n) {
r0[0] = 9;
r0[1] = 10;
r0[2] = 11;
r0[3] = 12;
r0[4] = 13;
r0[5] = 14;
r0[6] = 15;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 7; j++) { r0[j] &= ~(1 << ((i * 9 + j) % 31)); }
}
printf("%ld %ld %ld %ld %ld %ld %ld\n", r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6]);
return 0; }
