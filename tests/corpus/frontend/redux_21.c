long r0[4];
int main(int n) {
r0[0] = 2;
r0[1] = 3;
r0[2] = 4;
r0[3] = 5;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 4; j++) { r0[j] |= 1 << ((i * 2 + j) % 31); }
}
printf("%ld %ld %ld %ld\n", r0[0], r0[1], r0[2], r0[3]);
return 0; }
