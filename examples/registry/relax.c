/* relax: a relaxation-pass kernel over a 512-word array — the access
 * pattern of a Dijkstra/Bellman-Ford distance pass, where most steps
 * only read the array and few update it. 512 words = 2KB of data
 * memory, at the square-root ORAM break-even: over the registry's
 * 648-word layout every session runs on the sqrt-oram, whose stash ring
 * absorbs the 16 scatter stores and never pays their bank write-backs.
 * The array is Alice's input region itself (region-aligned at word
 * zero), which keeps the secret addresses' high bits public and the
 * scans confined to the array. */
void gc_main(int *a, const int *b, int *c) {
	unsigned acc = 0;
	for (int k = 0; k < 256; k = k + 1) {
		unsigned i = (b[k & 63] ^ k) & 511;
		unsigned v = a[i];
		acc = acc + v;
		if ((k & 15) == 0) {
			a[i] = acc ^ k;
		}
	}
	c[0] = acc;
	c[1] = a[(b[0] ^ 3) & 511];
}
