package packet

import "testing"

func TestLayerColorRoundTrip(t *testing.T) {
	for layer := 0; layer < MaxLayers; layer++ {
		c := LayerColor(layer)
		got, ok := c.Layer()
		if !ok || got != layer {
			t.Fatalf("LayerColor(%d).Layer() = (%d, %v), want (%d, true)", layer, got, ok, layer)
		}
		if !c.IsPELS() {
			t.Fatalf("LayerColor(%d) = %v not IsPELS", layer, c)
		}
	}
}

func TestLayerColorPaperColors(t *testing.T) {
	want := []Color{Green, Yellow, Red}
	for i, w := range want {
		if c := LayerColor(i); c != w {
			t.Fatalf("LayerColor(%d) = %v, want %v", i, c, w)
		}
	}
	// Extended layers must not collide with any named class.
	named := []Color{Green, Yellow, Red, BestEffort, TCP, ACK}
	for layer := 3; layer < MaxLayers; layer++ {
		c := LayerColor(layer)
		for _, n := range named {
			if c == n {
				t.Fatalf("LayerColor(%d) = %v collides with named color", layer, n)
			}
		}
	}
}

func TestLayerColorOutOfRangePanics(t *testing.T) {
	for _, layer := range []int{-1, MaxLayers, MaxLayers + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LayerColor(%d) did not panic", layer)
				}
			}()
			LayerColor(layer)
		}()
	}
}

func TestNonPELSColorsHaveNoLayer(t *testing.T) {
	for _, c := range []Color{BestEffort, TCP, ACK, 0, -1} {
		if _, ok := c.Layer(); ok {
			t.Fatalf("%v.Layer() ok, want not a layer", c)
		}
		if c.IsPELS() {
			t.Fatalf("%v.IsPELS() = true, want false", c)
		}
	}
}

func TestLayerName(t *testing.T) {
	cases := map[int]string{0: "green", 1: "yellow", 2: "red", 3: "layer3", 7: "layer7"}
	for layer, want := range cases {
		if got := LayerName(layer); got != want {
			t.Fatalf("LayerName(%d) = %q, want %q", layer, got, want)
		}
		if got := LayerColor(layer).String(); got != want {
			t.Fatalf("LayerColor(%d).String() = %q, want %q", layer, got, want)
		}
	}
}
