package dataset

import "errors"

// Sentinel errors of the dataset substrate. Sites wrap them with %w and
// contextual detail (attribute, tuple index, line number), so callers
// can errors.Is against the class of failure while messages stay
// specific.
var (
	// ErrNoAttributes reports a dataset with no attribute columns —
	// nothing to encode or mine.
	ErrNoAttributes = errors.New("dataset: no attributes")
	// ErrSchemaMismatch reports data that does not fit the dataset's
	// declared schema: wrong tuple arity, inconsistent column lengths,
	// or mismatched attribute metadata.
	ErrSchemaMismatch = errors.New("dataset: schema mismatch")
	// ErrBadLabel reports a class label outside the declared classes.
	ErrBadLabel = errors.New("dataset: label out of range")
	// ErrBadCategory reports an invalid categorical code or categorical
	// metadata that does not match the columns.
	ErrBadCategory = errors.New("dataset: invalid category")
	// ErrMalformedCSV reports CSV input the reader cannot interpret as
	// a relation instance.
	ErrMalformedCSV = errors.New("dataset: malformed csv")
	// ErrBadSplit reports train/test or fold parameters outside their
	// valid ranges.
	ErrBadSplit = errors.New("dataset: invalid split parameters")
	// ErrBadManifest reports a sharded-dataset manifest that is
	// malformed or disagrees with its shard files (missing shards,
	// wrong row counts, unknown class names, mismatched headers).
	ErrBadManifest = errors.New("dataset: invalid shard manifest")
	// ErrCorruptShard reports a shard file whose own bytes are broken:
	// bad magic or version, a truncated or malformed frame, or a
	// checksum mismatch against the manifest. Distinct from
	// ErrBadManifest so callers can tell "the description is wrong"
	// from "the data on disk is damaged".
	ErrCorruptShard = errors.New("dataset: corrupt shard file")
	// ErrNonFiniteValue reports a NaN or ±Inf attribute value. NaN
	// equals nothing, itself included, and a split between -Inf and
	// +Inf has no finite midpoint, so the split search has no meaning
	// for either; every reader and Validate reject them.
	ErrNonFiniteValue = errors.New("dataset: non-finite attribute value")
)
