package ratedapt

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/prng"
)

// SampledConfig extends Config with the sample-level imperfections the
// symbol-level Transfer abstracts away: per-tag initial synchronization
// offsets and clock drift, an oversampling reader front end, and carrier
// leakage. TransferSampled synthesizes the actual collision waveforms
// and lets the standard decoder work on what a real USRP capture would
// have yielded — the experiment behind the paper's §8.1 claim that
// sub-microsecond offsets "have negligible impact on the performance of
// Buzz".
type SampledConfig struct {
	// Config is the protocol configuration, shared with Transfer.
	Config
	// SamplesPerBit is the reader's oversampling factor (the paper's
	// USRP samples 80 kbps signals at 4 MHz ⇒ 50; default 10).
	SamplesPerBit int
	// OffsetModel draws per-tag initial offsets; nil means
	// phy.MooOffsets. Offsets apply at the start of each slot (tags
	// re-synchronize on the reader's inter-slot framing).
	OffsetModel *phy.SyncOffsetModel
	// DriftPPM bounds each tag's residual clock drift (uniform ±).
	// Zero means 30 ppm (drift-corrected tags, §8.1).
	DriftPPM float64
	// MidSampleWindow is how many central samples of each bit the
	// reader integrates (the §8.1 "use the middle samples" trick).
	// Zero means SamplesPerBit−4 (drop two samples at each edge),
	// clamped to at least 1.
	MidSampleWindow int
}

func (c *SampledConfig) samplesPerBit() int {
	if c.SamplesPerBit > 0 {
		return c.SamplesPerBit
	}
	return 10
}

func (c *SampledConfig) driftPPM() float64 {
	if c.DriftPPM > 0 {
		return c.DriftPPM
	}
	return 30
}

func (c *SampledConfig) midWindow() int {
	if c.MidSampleWindow > 0 {
		return c.MidSampleWindow
	}
	w := c.samplesPerBit() - 4
	if w < 1 {
		w = 1
	}
	return w
}

// TransferSampled is Transfer with the air replaced by oversampled
// waveform synthesis: each slot's collision is rendered sample by
// sample with every tag's own timing imperfections, the reader
// integrates the central samples of each bit into one observation, and
// the standard incremental decoder runs on those observations.
//
// The per-sample noise power is ch.SlotNoisePower(active)·SamplesPerBit,
// so a full-bit integration recovers exactly the symbol-level model's
// noise — any performance difference from Transfer is attributable to
// the timing imperfections alone.
func TransferSampled(cfg SampledConfig, messages []bits.Vector, ch *channel.Model, noiseSrc, decodeSrc *prng.Source) (*Result, error) {
	roster, err := staticRoster(cfg.Seeds, messages)
	if err != nil {
		return nil, err
	}
	if ch.K() != len(roster) {
		return nil, fmt.Errorf("ratedapt: channel has %d taps for %d tags", ch.K(), len(roster))
	}
	if len(roster) == 0 {
		return &Result{}, nil
	}
	res, err := runRound(cfg.Config, roster, channel.NewStatic(ch), decodeSrc, cfg.sampledAir(ch, noiseSrc))
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// sampledAir is TransferSampled's air: each slot's collision waveform is
// synthesized with the per-tag timing imperfections and integrated over
// the central samples of each bit into one observation per position.
func (cfg *SampledConfig) sampledAir(ch *channel.Model, noiseSrc *prng.Source) func(frames []bits.Vector) airFunc {
	return func(frames []bits.Vector) airFunc {
		k, frameLen := len(frames), len(frames[0])
		// Draw per-tag timing imperfections once; they persist across
		// the transfer (the same crystal keeps drifting the same way).
		model := cfg.OffsetModel
		if model == nil {
			m := phy.MooOffsets
			model = &m
		}
		timings := make([]phy.Timing, k)
		for i := range timings {
			timings[i] = model.DrawTiming(phy.DefaultBitRate, cfg.driftPPM(), noiseSrc)
		}
		spb := cfg.samplesPerBit()
		mid := cfg.midWindow()
		lead := (spb - mid) / 2

		// Staging buffers persist across slots: per-tag chip streams are
		// rendered once (the frames never change), and the waveform and
		// observation buffers are reused slot to slot.
		sc := cfg.Scratch
		chipStreams := make([][]bool, k)
		for i := range chipStreams {
			stream := sc.Bool(frameLen)
			copy(stream, frames[i])
			chipStreams[i] = stream
		}
		obs := sc.Complex(frameLen)
		samples := sc.Complex(frameLen * spb)
		tagsBuf := make([]phy.TagSignal, 0, k)
		return func(_ int, active []bool) []complex128 {
			tags := tagsBuf[:0]
			for i, on := range active {
				if on {
					tags = append(tags, phy.TagSignal{Chips: chipStreams[i], H: ch.Taps[i], Timing: timings[i]})
				}
			}
			cap := phy.Capture{
				SamplesPerChip: spb,
				Carrier:        0, // carrier-removed capture
				NoisePower:     ch.SlotNoisePower(active) * float64(spb),
			}
			cap.SynthesizeInto(samples, tags, frameLen, noiseSrc)
			for p := 0; p < frameLen; p++ {
				var s complex128
				for j := 0; j < mid; j++ {
					s += samples[p*spb+lead+j]
				}
				obs[p] = s / complex(float64(mid), 0)
			}
			return obs
		}
	}
}
