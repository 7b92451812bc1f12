package serverless

// Profile is the timing fingerprint one (model, strategy) template
// instance yields: the cold-start duration and stage layout plus the
// per-iteration serving costs every simulated replica shares. The
// simulator core builds one per deployment when a run starts.
type Profile struct {
	p *profile
}

// NewProfile validates the configuration, fills defaults, cold-starts
// the template instance, and returns its timing fingerprint. Any
// validation error is a *ConfigError.
func NewProfile(cfg Config) (*Profile, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p, err := buildProfile(cfg)
	if err != nil {
		return nil, err
	}
	return &Profile{p: p}, nil
}
