// The benchmark is a module of its own so that it builds from its own
// directory; the import path keeps the ntga/ prefix, which is what lets it
// import ntga/internal/... from the repository around it.
module ntga/benchmark

go 1.22

require ntga v0.0.0

replace ntga => ../
