package main

import (
	"testing"

	"github.com/psmr/psmr/internal/lz4"
	"github.com/psmr/psmr/internal/netfs"
)

// The read-back check accepts the block the stream wrote last and
// rejects any other: a lost or reordered write cannot pass as correct.
func TestReadBackRejectsABlockThatIsNotTheLastWrite(t *testing.T) {
	s := newFSStream(1, []fsFile{{path: fsPath(0), fd: 7}})
	s.last[0][3] = 41
	v := &fsVerify{s: s, file: map[string]int{fsPath(0): 0}}
	args := make([]byte, 20)
	args[8] = 0
	args[9] = 3 * fsIOSize >> 8 // offset of block 3, little endian
	op := fsOp(netfs.CmdRead, fsPath(0), args)
	reply := func(block []byte) []byte { return lz4.Pack(append([]byte{byte(netfs.OK)}, block...)) }
	if !v.check(op, reply(fsBlock(41))) {
		t.Error("the last write's block was rejected")
	}
	if v.check(op, reply(fsBlock(43))) {
		t.Error("an older write's block was accepted")
	}
	if v.check(op, lz4.Pack([]byte{byte(netfs.ErrBadFd)})) {
		t.Error("an error reply was accepted")
	}
}
