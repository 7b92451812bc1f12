package faults

import (
	"errors"
	"fmt"
)

// ArtifactCorruptError reports that an artifact's bytes failed
// checksum verification. Section names the first damaged wire section
// when the decoder could localize it ("body" otherwise).
type ArtifactCorruptError struct {
	// Key identifies the artifact (model name or cache key).
	Key string
	// Section is the first wire section whose checksum mismatched.
	Section string
	// Detail carries the decoder's diagnostic.
	Detail string
}

// Error implements error.
func (e *ArtifactCorruptError) Error() string {
	return fmt.Sprintf("faults: artifact %q corrupt in section %q: %s", e.Key, e.Section, e.Detail)
}

// FetchTimeoutError reports that a remote registry fetch exhausted its
// retry budget, every attempt timing out.
type FetchTimeoutError struct {
	// Key identifies the artifact being fetched.
	Key string
	// Attempts is how many fetches were tried before giving up.
	Attempts int
}

// Error implements error.
func (e *FetchTimeoutError) Error() string {
	return fmt.Sprintf("faults: fetch of %q timed out after %d attempts", e.Key, e.Attempts)
}

// RestoreMismatchError reports that a Medusa restore's validation
// diverged: the replayed allocation sequence no longer matches the
// artifact, so the materialized state cannot be trusted (§4's trigger
// for the vanilla-cold-start fallback).
type RestoreMismatchError struct {
	// Key identifies the artifact being restored.
	Key string
	// Label names the divergent structure (e.g. a graph or workspace).
	Label string
}

// Error implements error.
func (e *RestoreMismatchError) Error() string {
	return fmt.Sprintf("faults: restore of %q diverged at %q; materialized state untrusted", e.Key, e.Label)
}

// TemplateMissingError reports that a v3 (template+delta) artifact
// references an architecture template the resolver cannot supply — not
// in the registry, or no resolver at all. The delta alone cannot be
// restored, so the launch degrades to the vanilla cold start.
type TemplateMissingError struct {
	// Key identifies the artifact whose delta needed the template
	// (empty when decode failed before the model name was known).
	Key string
	// Template is the missing template's ID.
	Template string
}

// Error implements error.
func (e *TemplateMissingError) Error() string {
	return fmt.Sprintf("faults: artifact %q references template %q, which is missing", e.Key, e.Template)
}

// TemplateMismatchError reports that a resolved template does not match
// what the artifact's delta was encoded against — a body-CRC skew, or a
// template/delta format-version skew. Applying a delta against the
// wrong template bytes would silently build wrong graphs, so resolution
// refuses and the launch degrades to the vanilla cold start.
type TemplateMismatchError struct {
	// Key identifies the artifact whose delta pinned the template
	// (empty when decode failed before the model name was known).
	Key string
	// Template is the mismatching template's ID.
	Template string
	// Detail carries the decoder's diagnostic (CRC values or versions).
	Detail string
}

// Error implements error.
func (e *TemplateMismatchError) Error() string {
	return fmt.Sprintf("faults: artifact %q does not match template %q: %s", e.Key, e.Template, e.Detail)
}

// DegradeReason maps an error to the Reason* constant a survivable
// launch records, and reports whether the error is degradable at all.
// Non-degradable errors (nil, or genuine bugs) propagate as failures.
func DegradeReason(err error) (string, bool) {
	var corrupt *ArtifactCorruptError
	if errors.As(err, &corrupt) {
		return ReasonCorruptArtifact, true
	}
	var timeout *FetchTimeoutError
	if errors.As(err, &timeout) {
		return ReasonFetchTimeout, true
	}
	var mismatch *RestoreMismatchError
	if errors.As(err, &mismatch) {
		return ReasonRestoreMismatch, true
	}
	var tmplMissing *TemplateMissingError
	if errors.As(err, &tmplMissing) {
		return ReasonTemplateMissing, true
	}
	var tmplMismatch *TemplateMismatchError
	if errors.As(err, &tmplMismatch) {
		return ReasonTemplateMismatch, true
	}
	return "", false
}
