package netproto

import "hybridcc/internal/codec"

// Exported for the external tests (package netproto_test), which dial
// through the public hybridcc API and count what reaches the shards.
const (
	MsgRegister     = msgRegister
	FrameHeaderSize = codec.HeaderSize
)
