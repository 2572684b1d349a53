unsigned r0[3];
int main(int n) {
r0[0] = 6;
r0[1] = 7;
r0[2] = 8;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 3; j++) { r0[j] += i * 299 + j; }
}
printf("%u %u %u\n", r0[0], r0[1], r0[2]);
return 0; }
