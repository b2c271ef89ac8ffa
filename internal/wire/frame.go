package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed framing for append-only logs of wire payloads: the
// cluster layer's fragment log and forwarder spool both persist encoded
// fragments as a sequence of frames. A frame is a 4-byte big-endian
// payload length followed by the payload bytes; writers emit header and
// payload as one buffer (one write syscall), so a crash tears at most the
// final frame, and ReadFrames reports exactly where the intact prefix
// ends so the owner can truncate the torn tail.

// MaxFrameBytes bounds one frame's payload — the same ceiling
// internal/serve puts on a POSTed fragment body. A length past it is
// corruption (or a torn header parsed as garbage), not a bigger payload.
const MaxFrameBytes = 256 << 20

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 4

// AppendFrame appends one frame holding payload to dst and returns the
// extended slice. Write the returned bytes with a single Write call to
// keep the torn-tail invariant.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrames decodes consecutive frames from r, calling fn with each
// payload (valid only during the call). It returns the byte offset just
// past the last intact frame:
//
//   - a clean end (EOF on a frame boundary) returns (offset, nil);
//   - a torn tail — a partial header or partial payload — returns the
//     offset where the torn frame begins and a nil error, so the owner
//     can truncate the file there and resume appending;
//   - a header whose length is zero or past MaxFrameBytes is reported as
//     ErrCorrupt with the same truncation offset (a torn header's garbage
//     bytes are indistinguishable from real corruption);
//   - fn errors and non-EOF read errors abort the scan and are returned
//     as-is.
func ReadFrames(r io.Reader, fn func(payload []byte) error) (int64, error) {
	var (
		off int64
		hdr [frameHeaderLen]byte
		buf []byte
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil
			}
			return off, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > MaxFrameBytes {
			return off, fmt.Errorf("frame length %d at offset %d: %w", n, off, ErrCorrupt)
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil
			}
			return off, err
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return off, err
			}
		}
		off += frameHeaderLen + int64(n)
	}
}
