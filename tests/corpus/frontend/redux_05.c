int r0[1];
int main(int n) {
r0[0] = 0;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 1; j++) { r0[j] &= ~(1 << ((i * 1 + j) % 31)); }
}
printf("%d\n", r0[0]);
return 0; }
