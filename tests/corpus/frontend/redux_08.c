double r0[3];
int main(int n) {
r0[0] = -1;
r0[1] = 0;
r0[2] = 1;
for (int i = 0; i < n; i++) {
for (int j = 0; j < 3; j++) { r0[j] += (i * 733 + j) * 0.25; }
}
printf("%.4f %.4f %.4f\n", r0[0], r0[1], r0[2]);
return 0; }
