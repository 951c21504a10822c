// Package deep belongs to the nested module too.
package deep
