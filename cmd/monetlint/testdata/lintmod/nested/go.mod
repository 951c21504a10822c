module lintmod/nested

go 1.24
