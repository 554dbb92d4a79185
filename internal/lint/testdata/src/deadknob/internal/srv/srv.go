// Package srv declares the …Config structs the deadknob golden test judges.
package srv

// ServerConfig is what app configures.
type ServerConfig struct {
	Port    int // app sets it
	Tick    int // want "ServerConfig.Tick is set only by defaults"
	Retries int // want "ServerConfig.Retries is set only by defaults"
	// Now is a test-clock seam.
	//pelsvet:allow deadknob test-clock seam: tests drive a synthetic clock
	Now func() int
}

// DefaultServerConfig sets every knob but Retries.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{Port: 80, Tick: 1, Now: func() int { return 0 }}
}

// WithDefaults fills the zero Tick.
func (c ServerConfig) WithDefaults() ServerConfig {
	if c.Tick == 0 {
		c.Tick = 1
	}
	return c
}

// Config embeds ServerConfig: writing a promoted field sets it.
type Config struct {
	ServerConfig
	Name string
}

// New fills the zero Retries of the config it is handed: a default, not a
// caller's setting.
func New(cfg ServerConfig) int {
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	return cfg.Port + cfg.Tick + cfg.Retries + cfg.Now()
}
