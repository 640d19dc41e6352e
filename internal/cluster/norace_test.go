//go:build !race

package cluster

// hollowStartBytes is what building and starting a 1,024-node hollow
// world allocated when all its nodes shared one engine (Go 1.24, amd64).
const hollowStartBytes = 4_907_456
