package integration

import (
	"fmt"
	"strings"
)

// PrintTrimmed prints s with the trailing blanks of every line removed. An
// Example's "// Output:" block cannot hold trailing blanks — gofmt strips
// them from comments — so the Example tests print padded text, such as a
// metrics.Table's last column, through here.
func PrintTrimmed(s string) {
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		lines[i] = strings.TrimRight(line, " \t")
	}
	fmt.Print(strings.Join(lines, "\n"))
}
