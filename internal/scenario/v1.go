// Schema version 1: the original flat Spec layout. Every field the v2
// sections group was a top-level key (with the channel sub-object the
// one exception). The four shipped example specs and any workload file
// written before the "version": 2 schema parse through this path and
// must keep running byte-identically — the upgrade is a pure field
// relabeling, so the same values reach the same engine draws in the
// same order. TestSpecV1Compat pins that.
package scenario

// channelSpecV1 is the v1 "channel" sub-object (the SNR band and AGC
// impairment lived at the top level in v1).
type channelSpecV1 struct {
	Kind      string    `json:"kind,omitempty"`
	BlockLen  int       `json:"block_len,omitempty"`
	Rho       float64   `json:"rho,omitempty"`
	PerTagRho []float64 `json:"per_tag_rho,omitempty"`
}

// specV1 is the flat v1 document. Field names and JSON tags are frozen:
// they are the compatibility surface.
type specV1 struct {
	Version          int               `json:"version,omitempty"` // absent or 1
	Name             string            `json:"name,omitempty"`
	K                int               `json:"k"`
	Trials           int               `json:"trials"`
	Seed             uint64            `json:"seed"`
	SNRLodB          float64           `json:"snr_lo_db"`
	SNRHidB          float64           `json:"snr_hi_db"`
	NoSNRDefault     bool              `json:"no_snr_default,omitempty"`
	AGCNoiseFraction float64           `json:"agc_noise_fraction,omitempty"`
	NoAGC            bool              `json:"no_agc,omitempty"`
	MessageBits      int               `json:"message_bits,omitempty"`
	CRC              string            `json:"crc,omitempty"`
	Restarts         int               `json:"restarts,omitempty"`
	MaxSlots         int               `json:"max_slots,omitempty"`
	Channel          channelSpecV1     `json:"channel,omitempty"`
	Window           string            `json:"window,omitempty"`
	DecodeWindow     int               `json:"decode_window,omitempty"`
	WindowSoft       bool              `json:"window_soft,omitempty"`
	Population       []PopulationEvent `json:"population,omitempty"`
	Schemes          []string          `json:"schemes,omitempty"`
}

// upgrade relabels a v1 document into the sectioned v2 Spec. No
// defaulting, no validation — Parse applies both afterward, exactly as
// it always did, so a v1 spec's effective configuration is unchanged.
func (v specV1) upgrade() Spec {
	return Spec{
		Version: 2,
		Name:    v.Name,
		Trials:  v.Trials,
		Seed:    v.Seed,
		Workload: WorkloadSpec{
			K:           v.K,
			MessageBits: v.MessageBits,
			Population:  v.Population,
		},
		Channel: ChannelSpec{
			Kind:             v.Channel.Kind,
			BlockLen:         v.Channel.BlockLen,
			Rho:              v.Channel.Rho,
			PerTagRho:        v.Channel.PerTagRho,
			SNRLodB:          v.SNRLodB,
			SNRHidB:          v.SNRHidB,
			NoSNRDefault:     v.NoSNRDefault,
			AGCNoiseFraction: v.AGCNoiseFraction,
			NoAGC:            v.NoAGC,
		},
		Decode: DecodeSpec{
			CRC:          v.CRC,
			Restarts:     v.Restarts,
			MaxSlots:     v.MaxSlots,
			Window:       v.Window,
			DecodeWindow: v.DecodeWindow,
			WindowSoft:   v.WindowSoft,
		},
		Schemes: v.Schemes,
	}
}
