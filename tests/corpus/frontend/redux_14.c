unsigned r0[2];
int main(int n) {
r0[0] = 6;
r0[1] = 7;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 2; j++) { r0[j] += i * 299 + j; }
}
printf("%u %u\n", r0[0], r0[1]);
return 0; }
