package fixture

import (
	"fixture/internal/pkg"
	"fixture/internal/twin"
)

// calls names the exports of the packages below the root.
func calls() {
	pkg.Used()
	twin.Spin()
}
