package gcm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func stdSeal(key, nonce, plaintext, aad []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead.Seal(nil, nonce, plaintext, aad)
}

func key16(seed int64) []byte {
	k := make([]byte, 16)
	rand.New(rand.NewSource(seed)).Read(k)
	return k
}

func TestSealMatchesStdlib(t *testing.T) {
	f := func(plaintext, aad []byte, nonceSeed int64) bool {
		key := key16(1)
		nonce := make([]byte, NonceSize)
		rand.New(rand.NewSource(nonceSeed)).Read(nonce)

		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		s := c.NewStream(Seal, nonce, aad)
		ct := make([]byte, len(plaintext))
		s.Update(ct, plaintext)
		tag := s.Tag()

		want := stdSeal(key, nonce, plaintext, aad)
		return bytes.Equal(ct, want[:len(plaintext)]) &&
			bytes.Equal(tag[:], want[len(plaintext):])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeySizes(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		key := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(key)
		nonce := make([]byte, NonceSize)
		pt := []byte("the quick brown fox")
		aad := []byte("aad")
		c, err := New(key)
		if err != nil {
			t.Fatalf("key size %d: %v", n, err)
		}
		s := c.NewStream(Seal, nonce, aad)
		ct := make([]byte, len(pt))
		s.Update(ct, pt)
		tag := s.Tag()
		want := stdSeal(key, nonce, pt, aad)
		if !bytes.Equal(append(ct, tag[:]...), want) {
			t.Errorf("key size %d: mismatch with stdlib", n)
		}
	}
	if _, err := New(make([]byte, 15)); err == nil {
		t.Error("New accepted a 15-byte key")
	}
}

func TestIncrementalAnySplit(t *testing.T) {
	// Splitting the message at every boundary must give identical
	// ciphertext and tag — the property that lets the NIC process a record
	// packet by packet.
	key := key16(2)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 100)
	rand.New(rand.NewSource(3)).Read(pt)
	c, _ := New(key)
	want := stdSeal(key, nonce, pt, nil)

	for i := 0; i <= len(pt); i++ {
		s := c.NewStream(Seal, nonce, nil)
		ct := make([]byte, len(pt))
		s.Update(ct[:i], pt[:i])
		s.Update(ct[i:], pt[i:])
		tag := s.Tag()
		if !bytes.Equal(ct, want[:len(pt)]) || !bytes.Equal(tag[:], want[len(pt):]) {
			t.Fatalf("split at %d diverges from one-shot", i)
		}
	}
}

func TestIncrementalRandomChunks(t *testing.T) {
	f := func(chunkSizes []uint8, seed int64) bool {
		key := key16(4)
		nonce := make([]byte, NonceSize)
		rng := rand.New(rand.NewSource(seed))
		var pt []byte
		for _, n := range chunkSizes {
			chunk := make([]byte, int(n))
			rng.Read(chunk)
			pt = append(pt, chunk...)
		}
		c, _ := New(key)
		s := c.NewStream(Seal, nonce, nil)
		ct := make([]byte, 0, len(pt))
		off := 0
		for _, n := range chunkSizes {
			out := make([]byte, int(n))
			s.Update(out, pt[off:off+int(n)])
			ct = append(ct, out...)
			off += int(n)
		}
		tag := s.Tag()
		want := stdSeal(key, nonce, pt, nil)
		return bytes.Equal(ct, want[:len(pt)]) && bytes.Equal(tag[:], want[len(pt):])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	key := key16(5)
	nonce := make([]byte, NonceSize)
	nonce[11] = 9
	aad := []byte("record header")
	pt := make([]byte, 5000)
	rand.New(rand.NewSource(6)).Read(pt)
	c, _ := New(key)

	s := c.NewStream(Seal, nonce, aad)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)
	tag := s.Tag()

	// Open in uneven chunks.
	o := c.NewStream(Open, nonce, aad)
	got := make([]byte, len(ct))
	for off := 0; off < len(ct); {
		n := 1 + (off*7)%1337
		if off+n > len(ct) {
			n = len(ct) - off
		}
		o.Update(got[off:off+n], ct[off:off+n])
		off += n
	}
	if !bytes.Equal(got, pt) {
		t.Error("decryption mismatch")
	}
	if !o.Verify(tag[:]) {
		t.Error("tag verification failed on valid data")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	key := key16(7)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 256)
	c, _ := New(key)
	s := c.NewStream(Seal, nonce, nil)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)
	tag := s.Tag()

	for _, flip := range []int{0, 100, 255} {
		bad := append([]byte(nil), ct...)
		bad[flip] ^= 1
		o := c.NewStream(Open, nonce, nil)
		out := make([]byte, len(bad))
		o.Update(out, bad)
		if o.Verify(tag[:]) {
			t.Errorf("tampered byte %d passed verification", flip)
		}
	}
	// Tampered tag must fail too.
	o := c.NewStream(Open, nonce, nil)
	out := make([]byte, len(ct))
	o.Update(out, ct)
	badTag := append([]byte(nil), tag[:]...)
	badTag[0] ^= 1
	if o.Verify(badTag) {
		t.Error("tampered tag passed verification")
	}
}

func TestInPlaceUpdate(t *testing.T) {
	key := key16(8)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 1000)
	rand.New(rand.NewSource(9)).Read(pt)
	buf := append([]byte(nil), pt...)
	c, _ := New(key)

	s := c.NewStream(Seal, nonce, nil)
	s.Update(buf, buf) // encrypt in place, like the NIC does
	sealTag := s.Tag()
	want := stdSeal(key, nonce, pt, nil)
	if !bytes.Equal(buf, want[:len(pt)]) {
		t.Fatal("in-place encryption mismatch")
	}

	o := c.NewStream(Open, nonce, nil)
	o.Update(buf, buf) // decrypt in place
	if !bytes.Equal(buf, pt) {
		t.Fatal("in-place decryption mismatch")
	}
	if !o.Verify(sealTag[:]) {
		t.Fatal("in-place verify failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	key := key16(10)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 200)
	rand.New(rand.NewSource(11)).Read(pt)
	c, _ := New(key)

	s := c.NewStream(Seal, nonce, nil)
	ct := make([]byte, len(pt))
	s.Update(ct[:77], pt[:77])
	snap := s.Clone()
	s.Update(ct[77:], pt[77:])
	tag1 := s.Tag()

	ct2 := make([]byte, len(pt)-77)
	snap.Update(ct2, pt[77:])
	tag2 := snap.Tag()
	if !bytes.Equal(ct[77:], ct2) || tag1 != tag2 {
		t.Error("clone diverged from original")
	}
}

func TestProcessed(t *testing.T) {
	c, _ := New(key16(12))
	s := c.NewStream(Seal, make([]byte, NonceSize), nil)
	s.Update(make([]byte, 10), make([]byte, 10))
	s.Update(make([]byte, 7), make([]byte, 7))
	if s.Processed() != 17 {
		t.Errorf("Processed() = %d, want 17", s.Processed())
	}
}

func BenchmarkSeal16K(b *testing.B) {
	c, _ := New(key16(13))
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 16<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		s := c.NewStream(Seal, nonce, nil)
		s.Update(buf, buf)
		_ = s.Tag()
	}
}

// benchPackets runs one 16 KiB record per iteration through a Stream in
// 1448-byte Updates, the per-packet shape of the NIC engines.
func benchPackets(b *testing.B, dir Direction) {
	c, _ := New(key16(13))
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 16<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := c.NewStream(dir, nonce, nil)
		for off := 0; off < len(buf); off += 1448 {
			seg := buf[off:min(off+1448, len(buf))]
			s.Update(seg, seg)
		}
		_ = s.Tag()
	}
}

func BenchmarkSealPackets16K(b *testing.B) { benchPackets(b, Seal) }

func BenchmarkOpenPackets16K(b *testing.B) { benchPackets(b, Open) }

func BenchmarkStdlibSeal16K(b *testing.B) {
	block, _ := aes.NewCipher(key16(13))
	aead, _ := cipher.NewGCM(block)
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 16<<10)
	out := make([]byte, 0, len(buf)+16)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		out = aead.Seal(out[:0], nonce, buf, nil)
	}
}

func TestTransformMixed(t *testing.T) {
	// A "partial record": ranges alternate between plaintext (NIC already
	// decrypted) and ciphertext. One mixed pass must produce the full
	// plaintext and a valid tag.
	key := key16(20)
	nonce := make([]byte, NonceSize)
	nonce[0] = 7
	aad := []byte("hdr")
	pt := make([]byte, 3000)
	rand.New(rand.NewSource(21)).Read(pt)
	c, _ := New(key)
	s := c.NewStream(Seal, nonce, aad)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)
	tag := s.Tag()

	// Build the mixed wire view: [0,1000) decrypted, [1000,2200) raw,
	// [2200,3000) decrypted.
	mixed := append([]byte(nil), pt[:1000]...)
	mixed = append(mixed, ct[1000:2200]...)
	mixed = append(mixed, pt[2200:]...)

	o := c.NewStream(Open, nonce, aad)
	out := make([]byte, len(mixed))
	o.Transform(out[:1000], mixed[:1000], false)        // plaintext in
	o.Transform(out[1000:2200], mixed[1000:2200], true) // ciphertext in
	o.Transform(out[2200:], mixed[2200:], false)
	// Plaintext ranges come back re-encrypted (ciphertext); the caller
	// keeps the original plaintext for those ranges.
	if !bytes.Equal(out[1000:2200], pt[1000:2200]) {
		t.Error("ciphertext range did not decrypt")
	}
	if !bytes.Equal(out[:1000], ct[:1000]) || !bytes.Equal(out[2200:], ct[2200:]) {
		t.Error("plaintext ranges did not re-encrypt to original ciphertext")
	}
	if !o.Verify(tag[:]) {
		t.Error("mixed-pass tag verification failed")
	}
}

func TestSkip(t *testing.T) {
	key := key16(22)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 2000)
	rand.New(rand.NewSource(23)).Read(pt)
	c, _ := New(key)
	s := c.NewStream(Seal, nonce, nil)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)

	// Decrypt only the suffix after skipping a prefix of every length.
	for _, skip := range []int{0, 1, 15, 16, 17, 160, 1999, 2000} {
		o := c.NewStream(Open, nonce, nil)
		o.Skip(skip)
		got := make([]byte, len(ct)-skip)
		o.Update(got, ct[skip:])
		if !bytes.Equal(got, pt[skip:]) {
			t.Errorf("skip %d: suffix decryption mismatch", skip)
		}
	}

	// Skip split across calls equals one skip.
	o1 := c.NewStream(Open, nonce, nil)
	o1.Skip(7)
	o1.Skip(100)
	got := make([]byte, len(ct)-107)
	o1.Update(got, ct[107:])
	if !bytes.Equal(got, pt[107:]) {
		t.Error("split skip mismatch")
	}

	// Skip interleaved with Update.
	o2 := c.NewStream(Open, nonce, nil)
	head := make([]byte, 33)
	o2.Update(head, ct[:33])
	o2.Skip(500)
	tail := make([]byte, len(ct)-533)
	o2.Update(tail, ct[533:])
	if !bytes.Equal(head, pt[:33]) || !bytes.Equal(tail, pt[533:]) {
		t.Error("interleaved skip mismatch")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestStreamLengthLimit(t *testing.T) {
	// GCM's counter is inc32: it must never carry into the nonce. An
	// all-ones nonce makes any carry visible. The tail starts mid-block
	// and ends exactly at the limit, whose last block uses counter 2³²−1.
	key := key16(30)
	nonce := bytes.Repeat([]byte{0xff}, NonceSize)
	src := make([]byte, 3*blockSize+5)
	rand.New(rand.NewSource(31)).Read(src)
	start := uint64(maxDataLen - len(src))

	block, _ := aes.NewCipher(key)
	want := make([]byte, len(src))
	var cb, ks [blockSize]byte
	copy(cb[:], nonce)
	for i := range src {
		p := start + uint64(i)
		binary.BigEndian.PutUint32(cb[12:], uint32(2+p/blockSize))
		block.Encrypt(ks[:], cb[:])
		want[i] = src[i] ^ ks[p%blockSize]
	}

	c, _ := New(key)
	s := c.NewStream(Seal, nonce, nil)
	s.Skip(int(start))
	got := make([]byte, len(src))
	s.Update(got, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("keystream below the limit:\n got %x\nwant %x", got, want)
	}
	one := make([]byte, 1)
	mustPanic(t, "Update past the limit", func() { s.Update(one, one) })
	mustPanic(t, "Transform past the limit", func() { s.Transform(one, one, true) })
	mustPanic(t, "Skip past the limit", func() { s.Skip(1) })
	mustPanic(t, "one Skip past the limit", func() {
		c.NewStream(Open, nonce, nil).Skip(maxDataLen + 1)
	})
}

func TestUpdateNoAlloc(t *testing.T) {
	c, _ := New(key16(32))
	s := c.NewStream(Open, make([]byte, NonceSize), []byte("hdr"))
	buf := make([]byte, 16<<10)
	s.Update(buf[:5], buf[:5])
	allocs := testing.AllocsPerRun(50, func() {
		s.Update(buf[:1448], buf[:1448])
		s.Transform(buf[:7], buf[:7], false)
		s.Update(buf, buf)
		s.Transform(buf[:33], buf[100:133], true)
	})
	if allocs != 0 {
		t.Errorf("Update/Transform allocated %.1f times per run, want 0", allocs)
	}
}

// segPlan is a FuzzStreamSplits plan of msgLen bytes in seg-byte segments,
// each with the given flags.
func segPlan(msgLen, seg int, flags byte) []byte {
	var plan []byte
	for off := 0; off < msgLen; off += seg {
		plan = binary.LittleEndian.AppendUint16(plan, uint16(seg))
		plan = append(plan, flags)
	}
	return plan
}

// FuzzStreamSplits drives a Stream through a fuzzer-chosen plan and checks
// every output byte, and the tag unless a Skip made it meaningless,
// against crypto/cipher's one-shot GCM. The plan is read three bytes per
// segment: a little-endian length (clipped to the rest of the message)
// and a flags byte:
//
//	bit 0: Transform, with bit 1 as srcIsCiphertext, instead of Update
//	bit 2: in place (dst aliases src) instead of separate buffers
//	bit 3: Clone first, move the original on by 1 + 5·(flags>>5) bytes,
//	       and continue on the clone
//	bit 4: Skip the segment instead of processing it
//
// When the plan runs out, one Update finishes the message.
func FuzzStreamSplits(f *testing.F) {
	const rec = 16 << 10
	f.Add(uint16(rec), uint8(13), false, segPlan(rec, 1448, 0))
	f.Add(uint16(rec), uint8(13), true, segPlan(rec, 1448, 0x04))
	f.Add(uint16(rec+1), uint8(13), true, segPlan(rec+1, 1448, 0x01))
	f.Add(uint16(rec+15), uint8(13), false, segPlan(rec+15, 1448, 0x07))
	f.Add(uint16(1448+1), uint8(0), true, segPlan(1448+1, 1448, 0x04))
	f.Add(uint16(1448+15), uint8(5), false, segPlan(1448+15, 1448, 0))
	f.Add(uint16(3000), uint8(13), true,
		[]byte{0xe8, 0x03, 0x01, 0xb0, 0x04, 0x2b, 0x07, 0x00, 0x10, 0x21, 0x00, 0x08, 0x11, 0x00, 0x10})

	c, _ := New(key16(33))
	block, _ := aes.NewCipher(key16(33))
	aead, _ := cipher.NewGCM(block)
	f.Fuzz(func(t *testing.T, msgLen uint16, aadLen uint8, open bool, plan []byte) {
		n := int(msgLen)
		rng := rand.New(rand.NewSource(int64(msgLen)<<8 | int64(aadLen)))
		pt, aad, nonce := make([]byte, n), make([]byte, aadLen), make([]byte, NonceSize)
		rng.Read(pt)
		rng.Read(aad)
		rng.Read(nonce)
		sealed := aead.Seal(nil, nonce, pt, aad)
		ct, tag := sealed[:n], sealed[n:]

		dir := Seal
		if open {
			dir = Open
		}
		s := c.NewStream(dir, nonce, aad)
		skipped := false
		for off := 0; off < n; {
			seg, flags := n-off, byte(0)
			if len(plan) >= 3 {
				seg = min(seg, int(binary.LittleEndian.Uint16(plan)))
				flags = plan[2]
				plan = plan[3:]
			}
			if flags&0x08 != 0 {
				dup := s.Clone()
				junk := make([]byte, 1+5*int(flags>>5))
				s.Update(junk, junk)
				s = dup
			}
			if flags&0x10 != 0 {
				s.Skip(seg)
				skipped = true
				off += seg
				continue
			}
			srcIsCiphertext := open
			if flags&0x01 != 0 {
				srcIsCiphertext = flags&0x02 != 0
			}
			in, want := pt[off:off+seg], ct[off:off+seg]
			if srcIsCiphertext {
				in, want = want, in
			}
			out, src := make([]byte, seg), append([]byte(nil), in...)
			if flags&0x04 != 0 {
				copy(out, in)
				src = out
			}
			if flags&0x01 != 0 {
				s.Transform(out, src, srcIsCiphertext)
			} else {
				s.Update(out, src)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("segment [%d,%d) flags %#x: output diverges from crypto/cipher", off, off+seg, flags)
			}
			off += seg
		}
		if got := s.Tag(); !skipped && !bytes.Equal(got[:], tag) {
			t.Fatalf("tag %x, crypto/cipher %x", got, tag)
		}
	})
}
