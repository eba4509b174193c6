// Package inventory implements dynamic framed slotted ALOHA with the
// EPC Gen2 Q algorithm — the protocol a backscatter reader uses to
// enumerate many tags sharing its carrier. Braidio's backscatter mode is
// a one-tag link; this package extends it to the swarm setting the RFID
// lineage (Moo/WISP, the AS3993 baseline) comes from: one Braidio board
// as reader, N battery-free tags in range.
//
// Protocol sketch: the reader opens a frame of 2^Q slots; each tag draws
// a uniform slot counter; a slot with exactly one responder succeeds
// (the tag is read and silenced), zero responders is a cheap empty slot,
// two or more collide. The reader nudges Q up on collisions and down on
// empties (the Gen2 Q-algorithm with step C), keeping the frame size
// near the remaining population where slotted ALOHA peaks at 1/e
// efficiency.
package inventory

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// Config parameterizes an inventory round.
type Config struct {
	// Rate is the backscatter link rate.
	Rate units.BitRate
	// QInit is the initial Q (Gen2 default 4).
	QInit float64
	// C is the Q adjustment step (Gen2 allows 0.1–0.5).
	C float64
	// EmptyBits, CollisionBits, SuccessBits are the slot airtime costs
	// in bit times: an empty slot is a short timeout, a collision burns
	// a preamble's worth, a success carries the tag's 128-bit
	// RN16+EPC-class reply plus the ACK exchange.
	EmptyBits, CollisionBits, SuccessBits int
	// Seed drives the tags' slot draws.
	Seed uint64
}

// DefaultConfig returns Gen2-flavoured parameters at the given rate.
func DefaultConfig(rate units.BitRate, seed uint64) Config {
	return Config{
		Rate:          rate,
		QInit:         4,
		C:             0.3,
		EmptyBits:     8,
		CollisionBits: 32,
		SuccessBits:   192,
		Seed:          seed,
	}
}

// Result summarizes an inventory round.
type Result struct {
	// Tags read (always the full population on success).
	Tags int
	// Slots, Empties, Collisions, Successes count slot outcomes.
	Slots, Empties, Collisions, Successes int
	// Duration is the total airtime.
	Duration units.Second
	// ReaderEnergy is the reader's carrier+receive cost over the round.
	ReaderEnergy units.Joule
	// TagEnergy is the mean per-tag modulator energy (tags only spend
	// while responding).
	TagEnergy units.Joule
	// FinalQ is the Q value when the round ended.
	FinalQ float64
}

// Efficiency returns successes per slot — slotted ALOHA tops out at
// 1/e ≈ 0.368 with an oracle frame size.
func (r *Result) Efficiency() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Slots)
}

// SlotsPerTag returns the inventory cost in slots per tag.
func (r *Result) SlotsPerTag() float64 {
	if r.Tags == 0 {
		return 0
	}
	return float64(r.Slots) / float64(r.Tags)
}

// Run inventories n tags and returns the accounting. It errors on a
// non-positive population or nonsensical configuration.
func Run(cfg Config, n int) (*Result, error) {
	if n <= 0 {
		return nil, errors.New("inventory: need at least one tag")
	}
	if cfg.Rate <= 0 || cfg.QInit < 0 || cfg.C <= 0 || cfg.C > 1 {
		return nil, fmt.Errorf("inventory: invalid config %+v", cfg)
	}
	if cfg.EmptyBits <= 0 || cfg.CollisionBits <= 0 || cfg.SuccessBits <= 0 {
		return nil, fmt.Errorf("inventory: slot costs must be positive")
	}
	stream := rng.New(cfg.Seed)
	bitTime := float64(cfg.Rate.BitDuration())
	readerPower := float64(phy.BackscatterRXPower)
	tagPower := float64(phy.BackscatterTXPower(cfg.Rate))

	res := &Result{Tags: n}
	remaining := n
	q := cfg.QInit
	var tagSeconds float64 // summed over all tags

	// slotOf holds each remaining tag's drawn slot and counts the
	// responders per slot of the frame. Both are reused across frames:
	// counts grows only when a frame outgrows it, and is re-zeroed from
	// the drawn slots once the frame ends.
	slotOf := make([]int, n)
	var counts []int

	// Safety valve far above any sane round length.
	maxSlots := 1000 * (n + 16)
	for remaining > 0 {
		if res.Slots >= maxSlots {
			return nil, errors.New("inventory: failed to converge")
		}
		frameQ := int(math.Round(clampQ(q)))
		frame := 1 << frameQ
		if len(counts) < frame {
			counts = make([]int, frame)
		}
		// Each remaining tag picks one slot in the frame.
		slotOf = slotOf[:remaining]
		for i := range slotOf {
			slotOf[i] = stream.Intn(frame)
		}
		for _, s := range slotOf {
			counts[s]++
		}
		for slot := 0; slot < frame && remaining > 0; slot++ {
			res.Slots++
			switch counts[slot] {
			case 0:
				res.Empties++
				res.Duration += units.Second(float64(cfg.EmptyBits) * bitTime)
				q = clampQ(q - cfg.C)
			case 1:
				res.Successes++
				res.Duration += units.Second(float64(cfg.SuccessBits) * bitTime)
				tagSeconds += float64(cfg.SuccessBits) * bitTime
				remaining--
			default:
				res.Collisions++
				res.Duration += units.Second(float64(cfg.CollisionBits) * bitTime)
				// Colliding tags burned their reply airtime too.
				tagSeconds += float64(counts[slot]) * float64(cfg.CollisionBits) * bitTime
				q = clampQ(q + cfg.C)
			}
			// QueryAdjust: when the running Q rounds to a different
			// frame size, the reader aborts the frame and re-queries —
			// this is what lets Gen2 converge onto the population
			// instead of overshooting a whole frame at a time.
			if int(math.Round(clampQ(q))) != frameQ {
				break
			}
		}
		for _, s := range slotOf {
			counts[s] = 0
		}
		// Unread tags re-draw in the next frame (Gen2 re-query).
	}
	res.FinalQ = q
	res.ReaderEnergy = units.Joule(readerPower * float64(res.Duration))
	res.TagEnergy = units.Joule(tagPower * tagSeconds / float64(n))
	return res, nil
}

// clampQ keeps Q in Gen2's [0, 15].
func clampQ(q float64) float64 {
	if q < 0 {
		return 0
	}
	if q > 15 {
		return 15
	}
	return q
}
