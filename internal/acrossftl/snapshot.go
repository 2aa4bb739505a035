package acrossftl

import (
	"fmt"

	"across/internal/ftl"
	"across/internal/snapshot"
)

// SnapshotState implements snapshot.Snapshotter: Base plus the across-page
// mapping table, its paged table (DRAM cache and flash spill), the policy
// options and the cumulative statistics. Per-request scratch buffers are excluded.
func (s *Scheme) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("scheme:Across-FTL")
	if err := s.SnapshotBase(enc); err != nil {
		return err
	}
	if err := s.AMT.SnapshotState(enc); err != nil {
		return err
	}
	if err := s.amt.SnapshotState(enc); err != nil {
		return err
	}
	enc.I64(int64(s.opts.AMTCachePages))
	enc.Bool(s.opts.DisableAMerge)
	st := &s.stats
	enc.I64(st.DirectWrites)
	enc.I64(st.ProfitableAMerge)
	enc.I64(st.UnprofitableAMerge)
	enc.I64(st.Rollbacks)
	enc.I64(st.Superseded)
	enc.I64(st.DirectReads)
	enc.I64(st.MergedReads)
	enc.I64(st.MergedReadFlashReads)
	enc.I64(st.AcrossWrites)
	enc.I64(st.AcrossReads)
	return nil
}

// RestoreState implements snapshot.Snapshotter. The receiver must be built
// with the same options as the snapshotted scheme: AMTCachePages sizes the
// cache (enforced structurally by the paged table's LRU shape check) and DisableAMerge is
// a pure policy bit, restored directly.
func (s *Scheme) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("scheme:Across-FTL")
	if err := s.RestoreBase(dec); err != nil {
		return err
	}
	if err := s.AMT.RestoreState(dec); err != nil {
		return err
	}
	if err := s.amt.RestoreState(dec); err != nil {
		return err
	}
	amtCachePages := dec.I64()
	disableAMerge := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if amtCachePages != int64(s.opts.AMTCachePages) {
		return fmt.Errorf("acrossftl: snapshot taken with AMTCachePages %d, receiver built with %d", amtCachePages, s.opts.AMTCachePages)
	}
	s.opts.DisableAMerge = disableAMerge
	s.stats = Stats{
		DirectWrites:         dec.I64(),
		ProfitableAMerge:     dec.I64(),
		UnprofitableAMerge:   dec.I64(),
		Rollbacks:            dec.I64(),
		Superseded:           dec.I64(),
		DirectReads:          dec.I64(),
		MergedReads:          dec.I64(),
		MergedReadFlashReads: dec.I64(),
		AcrossWrites:         dec.I64(),
		AcrossReads:          dec.I64(),
	}
	return dec.Err()
}

// CopyState makes the scheme a copy of src, an Across-FTL *Scheme built for
// the same configuration (see ftl.Baseline.CopyState), and returns the
// bytes copied. The per-request scratch buffers are not state.
func (s *Scheme) CopyState(src ftl.Scheme) int64 {
	from := src.(*Scheme)
	s.opts, s.stats = from.opts, from.stats
	return s.CopyBase(&from.Base) + s.AMT.CopyState(from.AMT) + s.amt.CopyState(from.amt)
}
