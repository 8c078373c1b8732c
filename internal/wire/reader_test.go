package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// readBufferedSeeds are characteristic streams for FuzzReadFrameBuffered:
// a valid frame, a valid train, truncations, bad magic, a bad CRC and a
// declared payload length past MaxPayload. The same inputs are committed
// under testdata/fuzz/FuzzReadFrameBuffered.
func readBufferedSeeds(t testing.TB) [][]byte {
	good := frameSeed(t)
	m := Frame{Kind: KindRequest, ReqID: 9, Dst: Addr{Node: 3}, Payload: []byte("member")}
	members, err := AppendTrainMember(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	tr := Frame{Kind: KindTrain, Dst: Addr{Node: 3}, Payload: members}
	train, err := tr.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	badCRC := append([]byte(nil), good...)
	badCRC[headerLen+2] ^= 0x01
	tooLarge := append([]byte(nil), good...)
	tooLarge[38] = 0x7F // payload length far beyond MaxPayload
	return [][]byte{
		good,
		train,
		good[:headerLen+3], // truncated mid-payload
		good[:headerLen-4], // truncated mid-header
		badMagic,
		badCRC,
		tooLarge,
		{},
	}
}

// FuzzReadFrameBuffered checks that the stream reader agrees with Decode
// on every input: the same frame when Decode accepts, the same error when
// Decode rejects the header or CRC, and io.EOF (empty input) or
// io.ErrUnexpectedEOF exactly when Decode reports a short buffer. An
// accepted frame is then read twice over from one stream, and the first
// copy must still be intact after the second was read into the same
// bufio.Reader. Run with e.g.
//
//	go test -fuzz=FuzzReadFrameBuffered -fuzztime=30s ./internal/wire
func FuzzReadFrameBuffered(f *testing.F) {
	for _, s := range readBufferedSeeds(f) {
		f.Add(s)
	}
	// The smallest reader that fits an empty frame makes larger frames
	// span several refills.
	const bufSize = headerLen + trailerLen
	f.Fuzz(func(t *testing.T, data []byte) {
		want, n, derr := Decode(data)
		got, rerr := ReadFrameBuffered(bufio.NewReaderSize(bytes.NewReader(data), bufSize))
		switch {
		case derr == ErrShortBuffer:
			wantErr := io.ErrUnexpectedEOF
			if len(data) == 0 {
				wantErr = io.EOF
			}
			if rerr != wantErr {
				t.Fatalf("Decode: short buffer; reader: %v, want %v", rerr, wantErr)
			}
			return
		case derr != nil:
			if rerr != derr {
				t.Fatalf("Decode: %v; reader: %v", derr, rerr)
			}
			return
		case rerr != nil:
			t.Fatalf("Decode accepted %d bytes; reader: %v", n, rerr)
		}
		assertSameFrame(t, got, &want)

		br := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(data[:n]), bytes.NewReader(data[:n])), bufSize)
		first, err := ReadFrameBuffered(br)
		if err != nil {
			t.Fatalf("first copy: %v", err)
		}
		second, err := ReadFrameBuffered(br)
		if err != nil {
			t.Fatalf("second copy: %v", err)
		}
		assertSameFrame(t, second, &want)
		assertSameFrame(t, first, &want)
	})
}

func assertSameFrame(t *testing.T, got, want *Frame) {
	t.Helper()
	if got.Kind != want.Kind || got.Flags != want.Flags || got.ReqID != want.ReqID ||
		got.Src != want.Src || got.Dst != want.Dst || got.Object != want.Object ||
		!bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("reader frame %v, Decode frame %v", got, want)
	}
}

// TestReadFrameBufferedBackToBack reads a stream of frames — some larger
// than the bufio.Reader's buffer, some smaller — and only then checks
// every payload: each frame must own its bytes, never alias the reader's
// buffer, which later reads overwrite.
func TestReadFrameBufferedBackToBack(t *testing.T) {
	var stream []byte
	var want []Frame
	for i := 0; i < 12; i++ {
		size := []int{0, 7, 100, 300}[i%4]
		p := bytes.Repeat([]byte{byte('a' + i)}, size)
		f := Frame{Kind: KindReply, ReqID: uint64(i), Dst: Addr{Node: 2}, Payload: p}
		var err error
		if stream, err = f.Encode(stream); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	br := bufio.NewReaderSize(bytes.NewReader(stream), 64)
	var got []*Frame
	for range want {
		f, err := ReadFrameBuffered(br)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	if _, err := ReadFrameBuffered(br); err != io.EOF {
		t.Fatalf("read past the last frame = %v, want io.EOF", err)
	}
	for i := range want {
		assertSameFrame(t, got[i], &want[i])
	}
}

// TestReadFrameBufferedAllocs holds a frame read to its two allocations:
// the frame's buffer and the Frame itself.
func TestReadFrameBufferedAllocs(t *testing.T) {
	f := sampleFrame()
	one, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat(one, 101)
	r := bytes.NewReader(stream)
	br := bufio.NewReader(r)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReadFrameBuffered(br); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ReadFrameBuffered allocates %.1f/frame, budget is 2", allocs)
	}
}
