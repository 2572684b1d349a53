long r0[2];
int main(int n) {
r0[0] = 2;
r0[1] = 3;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 2; j++) { r0[j] |= 1 << ((i * 2 + j) % 31); }
}
printf("%ld %ld\n", r0[0], r0[1]);
return 0; }
