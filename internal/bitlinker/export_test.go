package bitlinker

// Exported for the external oracle test, which rebuilds the region band
// without the package's internals.
const WordsPerRow = wordsPerRow

var Splitmix = splitmix
