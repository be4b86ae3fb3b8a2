module github.com/extended-dns-errors/edelab/bench

go 1.23

require github.com/extended-dns-errors/edelab v0.0.0

replace github.com/extended-dns-errors/edelab => ../
