int a[4096];
int find(int n, int key) {
  for (int i = 0; i < n; i++) { a[i] = i * 3; if (i == key) { return i; } }
  return -1;
}
int main(int n) {
  long total = 0;
  for (int r = 0; r < 40; r++) { total += find(n, n + 5); }
  total += find(n, 7);
  printf("%ld\n", total);
  return 0;
}
