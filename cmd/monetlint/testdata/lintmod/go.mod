module lintmod

go 1.24
