package contention

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// UtilizationProfile reports how uniform all-pairs traffic spreads over the
// inter-router channels: the route count per channel and its extremes.
// §2 of the paper uses this notion to argue that "most arrangements of path
// disables give uneven link utilization under uniform load" on the
// hypercube.
type UtilizationProfile struct {
	PerChannel map[topology.ChannelID]int
	Min, Max   int
}

// Utilization counts, for every inter-router channel, how many of the
// all-pairs routes cross it. Unused inter-router channels count zero.
func Utilization(t *routing.Tables) (UtilizationProfile, error) {
	inter := func(ch topology.ChannelID) bool { return interRouter(t.Net, ch) }
	perChannel, err := channelPairs(t, allPairs(t.Net.NumNodes()), inter)
	if err != nil {
		return UtilizationProfile{}, err
	}
	p := UtilizationProfile{PerChannel: make(map[topology.ChannelID]int)}
	first := true
	for c, pairs := range perChannel {
		ch := topology.ChannelID(c)
		if !inter(ch) {
			continue
		}
		n := len(pairs)
		p.PerChannel[ch] = n
		if first || n < p.Min {
			p.Min = n
		}
		if first || n > p.Max {
			p.Max = n
		}
		first = false
	}
	return p, nil
}

// ImbalanceRatio reports Max/Min utilization; channels with zero routes
// yield +Inf conceptually, reported as the Max count with ok=false.
func (p UtilizationProfile) ImbalanceRatio() (ratio float64, ok bool) {
	if p.Min == 0 {
		return float64(p.Max), false
	}
	return float64(p.Max) / float64(p.Min), true
}
