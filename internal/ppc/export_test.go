package ppc

// BuilderWords exposes the builder-word list to the external test package.
var BuilderWords = builderWords
