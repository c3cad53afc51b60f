int main() { return 0; }
