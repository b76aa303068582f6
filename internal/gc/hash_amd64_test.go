package gc

// The AES-NI kernels join the paths TestHashBatchMatchesScalar checks
// against crypto/aes, on CPUs that have them.
func init() {
	if roundKeys == nil {
		return
	}
	piXorPaths["aesni"] = func(_ *Hash, blocks []Label) {
		switch len(blocks) {
		case 4:
			aesPiXor4(roundKeys, (*[4]Label)(blocks))
		case 2:
			aesPiXor2(roundKeys, (*[2]Label)(blocks))
		default:
			panic("gc: the AES-NI kernels take 4 or 2 blocks")
		}
	}
}
