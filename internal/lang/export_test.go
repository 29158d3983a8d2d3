package lang

// Loop23Nest is the paper's loop-23 nest, shared with the external tests.
const Loop23Nest = loop23Nest
