package server

// Queued reports how many jobs wait for the dispatcher. The dispatcher tests
// use it to know that a batch's worth of requests has arrived before they
// let the dispatcher pick it up.
func (s *Server) Queued() int { return len(s.jobs) }
