package virtual

// UniformKeys exposes the key fixture to the external sort tests.
var UniformKeys = uniformKeys
