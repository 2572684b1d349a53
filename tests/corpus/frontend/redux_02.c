int r0[3];
int main(int n) {
r0[0] = 5;
r0[1] = 6;
r0[2] = 7;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 3; j++) { r0[j] *= i * 142695 + j + 3; }
}
printf("%d %d %d\n", r0[0], r0[1], r0[2]);
return 0; }
