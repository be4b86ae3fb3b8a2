package telemetry

// ParseExposition is parseExposition for the external tests.
var ParseExposition = parseExposition
