int r0[6];
int main(int n) {
r0[0] = 7;
r0[1] = 8;
r0[2] = 9;
r0[3] = 10;
r0[4] = 11;
r0[5] = 12;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 6; j++) { r0[j] |= 1 << ((i * 523 + j) % 31); }
}
printf("%d %d %d %d %d %d\n", r0[0], r0[1], r0[2], r0[3], r0[4], r0[5]);
return 0; }
