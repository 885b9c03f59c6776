package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sledge/internal/wcc"
)

// ModuleConfig describes one function in a deployment configuration file,
// the analog of the paper's JSON-based module configuration (§4).
type ModuleConfig struct {
	// Name is the function's route (POST /<name>).
	Name string `json:"name"`
	// Path points at a .wcc source file or a .wasm binary.
	Path string `json:"path"`
	// Entry is the exported function to run (default "main").
	Entry string `json:"entry"`
	// HeapBytes reserves sandbox heap for WCC compilation.
	HeapBytes int `json:"heap_bytes"`
	// Tenant labels the function's owner for admission control (fair
	// queueing weight and rate limits); empty means the default tenant.
	Tenant string `json:"tenant"`
}

// DeployConfig is the on-disk configuration format.
type DeployConfig struct {
	Modules []ModuleConfig `json:"modules"`
}

// LoadModulesFile reads a JSON deployment configuration and registers every
// module it lists. Registration is all-or-nothing per module: the first
// failure is returned with the offending module named.
func (rt *Runtime) LoadModulesFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	var cfg DeployConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("core: %s: %w", path, err)
	}
	base := filepath.Dir(path)
	for _, mc := range cfg.Modules {
		if mc.Name == "" || mc.Path == "" {
			return fmt.Errorf("core: %s: module entries need name and path", path)
		}
		modPath := mc.Path
		if !filepath.IsAbs(modPath) {
			modPath = filepath.Join(base, modPath)
		}
		src, err := os.ReadFile(modPath)
		if err != nil {
			return fmt.Errorf("core: module %s: %w", mc.Name, err)
		}
		// Both paths register through registerBinary so deployments retain
		// their binary for revive when the bounded cache is on.
		switch strings.ToLower(filepath.Ext(modPath)) {
		case ".wasm":
			if _, err := rt.registerBinary(mc.Name, src, mc.Entry, mc.Tenant); err != nil {
				return err
			}
		default:
			res, err := wcc.Compile(string(src), wcc.Options{HeapBytes: mc.HeapBytes})
			if err != nil {
				return fmt.Errorf("core: register %s: %w", mc.Name, err)
			}
			if _, err := rt.registerBinary(mc.Name, res.Binary, "main", mc.Tenant); err != nil {
				return err
			}
		}
	}
	return nil
}
