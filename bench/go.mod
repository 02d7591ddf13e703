// The benchmark is a module of its own so that it builds from its own
// directory and the root module's `./...` never compiles it; the replace
// points back at the tree under test, and the failstop/ path prefix is what
// lets it import failstop/internal/* from outside.
module failstop/bench

go 1.22

require failstop v0.0.0

replace failstop => ../
