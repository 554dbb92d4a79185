// Package app is srv's caller.
package app

import "deadknob/internal/srv"

// Run sets Port, and Config's fields through the embedded ServerConfig.
func Run() int {
	cfg := srv.DefaultServerConfig()
	cfg.Port = 8080
	var c srv.Config
	c.Port = 1
	c.Name = "x"
	return srv.New(cfg.WithDefaults()) + srv.New(c.ServerConfig.WithDefaults()) + len(c.Name)
}
