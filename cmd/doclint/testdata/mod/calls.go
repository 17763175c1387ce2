package fixture

import (
	"fixture/internal/methods"
	"fixture/internal/pkg"
	"fixture/internal/twin"
)

// calls names the exports of the packages below the root.
func calls() {
	pkg.Used()
	twin.Spin()
	methods.Measure(methods.Framed{})
	_ = methods.Framed{}.Describe()
	_ = methods.Label("label")
	_ = methods.Counter{}
}
