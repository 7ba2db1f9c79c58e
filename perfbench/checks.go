package main

// goldenDigests are each workload's artifact digests at --seed 0, the
// simulator's default seed: the sha256 of the Table IV grid JSON, the
// multicore battery grid JSON, the crash matrix JSON, and the two
// serve sessions' result bytes concatenated.
var goldenDigests = map[string]string{
	"table4":    "4388de2a1eb789cf625ed2393450ec8969f512aeb713585e3eed17602b5bee24",
	"multicore": "e5d5745564e23e0d15aba907724e24935010c0b6b09f20308c2afcc98a91e4c9",
	"crash":     "bb78ddc8d9de97df737b22d11355500016b83d5a08e49a3d6ff46df3462d9721",
	"serve":     "d424db18e4699ddd412100015bd2efd75dd5ea0b19918e84c6917fd57448eaa5",
}
