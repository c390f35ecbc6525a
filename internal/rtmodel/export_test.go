package rtmodel

// ReferenceJSON exposes the encoding/json reference renderer to the
// external corpus test, which builds its models through the toolchain
// (a package that itself imports rtmodel).
var ReferenceJSON = referenceJSON
