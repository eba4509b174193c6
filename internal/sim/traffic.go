package sim

import (
	"fmt"

	"braidio/internal/units"
)

// Arrival is one application-layer message to transmit.
type Arrival struct {
	// Time the message becomes available.
	Time units.Second
	// Bytes of payload.
	Bytes int
}

// CBR is constant-bitrate traffic: fixed-size messages at a fixed
// period — the continuous transfer of Scenario 1, or a sensor stream.
type CBR struct {
	// Period between messages.
	Period units.Second
	// Bytes per message.
	Bytes int
}

// NewCBR validates and returns a CBR source.
func NewCBR(period units.Second, bytes int) CBR {
	if period <= 0 || bytes <= 0 {
		panic(fmt.Sprintf("sim: invalid CBR period=%v bytes=%d", float64(period), bytes))
	}
	return CBR{Period: period, Bytes: bytes}
}

// Next returns the arrival that follows one at time t.
func (c CBR) Next(t units.Second) Arrival {
	return Arrival{Time: t + c.Period, Bytes: c.Bytes}
}

// VideoStream models the Pivothead-style camera of the introduction: a
// frame every 1/fps seconds of the given size — CBR with video-flavored
// construction.
func VideoStream(fps float64, frameBytes int) CBR {
	if fps <= 0 {
		panic("sim: non-positive fps")
	}
	return NewCBR(units.Second(1/fps), frameBytes)
}

// OfferedLoad returns a source's average offered load in bits per
// second.
func OfferedLoad(c CBR) units.BitRate {
	return units.BitRate(float64(8*c.Bytes) / float64(c.Period))
}
