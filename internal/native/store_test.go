package native

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// referenceBody writes synthetic file i out byte by byte in its own
// allocation, byte j being 'a'+(i+j)%26: the reference the shared-buffer
// views are checked against.
func referenceBody(i int, size int64) []byte {
	body := make([]byte, size)
	for j := range body {
		body[j] = byte('a' + (i+j)%26)
	}
	return body
}

// checkSyntheticContent checks that st holds exactly the files /f/0 ..
// /f/<len(sizes)-1>, each byte-equal to referenceBody and with no spare
// capacity, so that an append to one body cannot write into another.
func checkSyntheticContent(t *testing.T, st *MemStore, sizes []int64) {
	t.Helper()
	if got := len(st.Paths()); got != len(sizes) {
		t.Fatalf("%d paths, want %d", got, len(sizes))
	}
	for i, size := range sizes {
		b, ok := st.Get("/f/" + strconv.Itoa(i))
		if !ok || !bytes.Equal(b, referenceBody(i, size)) {
			t.Fatalf("file %d (%d bytes): found %v, content differs from the reference", i, size, ok)
		}
		if cap(b) != len(b) {
			t.Fatalf("file %d: cap %d, len %d", i, cap(b), len(b))
		}
	}
}

func TestSyntheticContent(t *testing.T) {
	// SyntheticStore(2000, 24, 1)'s sizes in id order, as little-endian
	// int64s, hashed when each body still had its own allocation: views
	// must not change how the sizes are drawn.
	const sizesSHA256 = "62e7b25be1cbdf7191a428490341322afdfce5948c8a2a15e49b8f2a723ee508"
	st := SyntheticStore(2000, 24, 1)
	sizes := make([]int64, 2000)
	h := sha256.New()
	for i := range sizes {
		b, _ := st.Get("/f/" + strconv.Itoa(i))
		sizes[i] = int64(len(b))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(sizes[i])))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sizesSHA256 {
		t.Fatalf("sizes SHA-256 %s, want %s", got, sizesSHA256)
	}
	if longest := slices.Max(sizes); longest <= 64<<10 {
		t.Fatalf("largest file %d B; the catalog must have one over 64 KB", longest)
	}
	checkSyntheticContent(t, st, sizes)

	tr := trace.MustGenerate(trace.GenSpec{
		Name: "s", Files: 500, AvgFileKB: 8, Requests: 10, AvgReqKB: 8, Alpha: 1, Seed: 1,
	})
	checkSyntheticContent(t, StoreFromTrace(tr), tr.Sizes)
}

// TestSyntheticStoreHeap builds 20,000 files of 256 KB mean, ≈ 5 GB if each
// body had bytes of its own: the store may grow the live heap by its one
// shared buffer, as long as the largest file, and 32 B per file for its
// 24 B slice header in the FileID table.
func TestSyntheticStoreHeap(t *testing.T) {
	const files = 20_000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	st := SyntheticStore(files, 256, 1)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grew := int64(ms.HeapAlloc) - before

	var longest int64
	for i := range st.Len() {
		longest = max(longest, int64(len(st.Body(cache.FileID(i)))))
	}
	if limit := longest + 32*files; grew >= limit {
		t.Fatalf("live heap grew %d B, want under %d (largest file %d B + 32 B x %d files)", grew, limit, longest, files)
	}
	t.Logf("live heap grew %d B; largest file %d B", grew, longest)
}
