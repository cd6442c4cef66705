// Package gamesim generates synthetic cloud-game streaming sessions with the
// traffic phenomenology the paper measures on NVIDIA GeForce NOW: per-title
// launch-stage packet-group signatures (§3.2, Fig 3), player-activity-stage
// dependent bidirectional volumetric profiles (§3.3, Fig 4), and the
// semi-Markov stage dynamics of Fig 5. It stands in for the paper's 531-
// session lab capture and the ISP field deployment, which are not available.
package gamesim

import "fmt"

// Genre is a cloud-game genre as defined by the gaming community (Table 1).
type Genre int

// Genres of the top-13 catalog.
const (
	GenreShooter Genre = iota
	GenreRolePlaying
	GenreSports
	GenreMOBA
	GenreCard
)

// String names the genre.
func (g Genre) String() string {
	switch g {
	case GenreShooter:
		return "Shooter"
	case GenreRolePlaying:
		return "Role-playing"
	case GenreSports:
		return "Sports"
	case GenreMOBA:
		return "MOBA"
	case GenreCard:
		return "Card"
	default:
		return fmt.Sprintf("genre(%d)", int(g))
	}
}

// Pattern is a gameplay activity pattern (§2.1): how player activity stages
// succeed each other over a session.
type Pattern int

// The two gameplay activity patterns.
const (
	SpectateAndPlay Pattern = iota
	ContinuousPlay
)

// NumPatterns is the number of gameplay activity patterns.
const NumPatterns = 2

// String names the pattern.
func (p Pattern) String() string {
	if p == ContinuousPlay {
		return "continuous-play"
	}
	return "spectate-and-play"
}

// TitleID indexes the popular-game catalog.
type TitleID int

// The thirteen popular titles of Table 1, ordered as in the paper.
const (
	Fortnite TitleID = iota
	GenshinImpact
	BaldursGate3
	R6Siege
	HonkaiStarRail
	Destiny2
	CallOfDuty
	Cyberpunk2077
	Overwatch2
	RocketLeague
	CSGO
	Dota2
	Hearthstone
	NumTitles // sentinel
)

// Title describes one catalog entry: its Table 1 row plus the generator
// parameters that shape its traffic.
type Title struct {
	ID      TitleID
	Name    string
	Genre   Genre
	Pattern Pattern
	// Popularity is the fraction of total playtime (Table 1).
	Popularity float64
	// MeanSessionMinutes matches the per-title session durations of Fig 11.
	MeanSessionMinutes float64
	// Demand scales the title's streaming bitrate at a given resolution
	// relative to the catalog norm: Hearthstone's near-static card table
	// needs a fraction of Fortnite's bitrate (§5.2, Fig 12).
	Demand float64
	// StageBias skews per-stage dwell times so per-title stage-share
	// profiles match Fig 11 (e.g. Hearthstone idles a lot, Dota 2 is
	// mostly active). Values multiply the pattern's base dwell times.
	IdleDwell, ActiveDwell, PassiveDwell float64
	// launchSeed derives the title's deterministic launch signature.
	launchSeed int64
}

// catalog is Table 1 with generator parameters. Popularity shares are the
// paper's; durations track Fig 11; demand tracks the Fig 12 ranges.
var catalog = [NumTitles]Title{
	Fortnite:       {Name: "Fortnite", Genre: GenreShooter, Pattern: SpectateAndPlay, Popularity: 0.3780, MeanSessionMinutes: 70, Demand: 1.15, IdleDwell: 0.7, ActiveDwell: 1.5, PassiveDwell: 0.8, launchSeed: 101},
	GenshinImpact:  {Name: "Genshin Impact", Genre: GenreRolePlaying, Pattern: ContinuousPlay, Popularity: 0.2010, MeanSessionMinutes: 75, Demand: 1.0, IdleDwell: 1.0, ActiveDwell: 1.0, PassiveDwell: 1.0, launchSeed: 102},
	BaldursGate3:   {Name: "Baldur's Gate", Genre: GenreRolePlaying, Pattern: ContinuousPlay, Popularity: 0.0330, MeanSessionMinutes: 95, Demand: 1.2, IdleDwell: 1.6, ActiveDwell: 0.9, PassiveDwell: 1.0, launchSeed: 103},
	R6Siege:        {Name: "Rainbow Six Siege", Genre: GenreShooter, Pattern: SpectateAndPlay, Popularity: 0.0124, MeanSessionMinutes: 65, Demand: 1.0, IdleDwell: 1.2, ActiveDwell: 1.0, PassiveDwell: 1.1, launchSeed: 104},
	HonkaiStarRail: {Name: "Honkai: Star Rail", Genre: GenreRolePlaying, Pattern: ContinuousPlay, Popularity: 0.0116, MeanSessionMinutes: 60, Demand: 0.75, IdleDwell: 1.9, ActiveDwell: 0.8, PassiveDwell: 1.3, launchSeed: 105},
	Destiny2:       {Name: "Destiny 2", Genre: GenreShooter, Pattern: SpectateAndPlay, Popularity: 0.0115, MeanSessionMinutes: 68, Demand: 0.95, IdleDwell: 1.0, ActiveDwell: 1.1, PassiveDwell: 1.0, launchSeed: 106},
	CallOfDuty:     {Name: "Call of Duty", Genre: GenreShooter, Pattern: SpectateAndPlay, Popularity: 0.0097, MeanSessionMinutes: 55, Demand: 1.1, IdleDwell: 0.9, ActiveDwell: 1.2, PassiveDwell: 0.9, launchSeed: 107},
	Cyberpunk2077:  {Name: "Cyberpunk 2077", Genre: GenreRolePlaying, Pattern: ContinuousPlay, Popularity: 0.0084, MeanSessionMinutes: 82, Demand: 1.15, IdleDwell: 1.5, ActiveDwell: 1.0, PassiveDwell: 1.0, launchSeed: 108},
	Overwatch2:     {Name: "Overwatch 2", Genre: GenreShooter, Pattern: SpectateAndPlay, Popularity: 0.0074, MeanSessionMinutes: 58, Demand: 1.0, IdleDwell: 1.0, ActiveDwell: 1.0, PassiveDwell: 1.0, launchSeed: 109},
	RocketLeague:   {Name: "Rocket League", Genre: GenreSports, Pattern: SpectateAndPlay, Popularity: 0.0064, MeanSessionMinutes: 35, Demand: 0.9, IdleDwell: 0.8, ActiveDwell: 0.9, PassiveDwell: 0.7, launchSeed: 110},
	CSGO:           {Name: "CS:GO", Genre: GenreShooter, Pattern: SpectateAndPlay, Popularity: 0.0061, MeanSessionMinutes: 38, Demand: 0.95, IdleDwell: 1.0, ActiveDwell: 0.9, PassiveDwell: 1.2, launchSeed: 111},
	Dota2:          {Name: "Dota 2", Genre: GenreMOBA, Pattern: SpectateAndPlay, Popularity: 0.0055, MeanSessionMinutes: 72, Demand: 0.85, IdleDwell: 0.8, ActiveDwell: 1.8, PassiveDwell: 0.9, launchSeed: 112},
	Hearthstone:    {Name: "Hearthstone", Genre: GenreCard, Pattern: SpectateAndPlay, Popularity: 0.0004, MeanSessionMinutes: 45, Demand: 0.35, IdleDwell: 1.8, ActiveDwell: 0.7, PassiveDwell: 1.7, launchSeed: 113},
}

func init() {
	for id := TitleID(0); id < NumTitles; id++ {
		catalog[id].ID = id
	}
}

// Catalog returns the thirteen popular titles in Table 1 order.
func Catalog() []Title {
	out := make([]Title, NumTitles)
	copy(out, catalog[:])
	return out
}

// TitleByID returns one catalog entry.
func TitleByID(id TitleID) Title {
	if id < 0 || id >= NumTitles {
		panic(fmt.Sprintf("gamesim: bad title id %d", id))
	}
	return catalog[id]
}

// TitleByName looks a title up by its display name.
func TitleByName(name string) (Title, bool) {
	for _, t := range catalog {
		if t.Name == name {
			return t, true
		}
	}
	return Title{}, false
}

// TitleNames returns the catalog display names in TitleID order.
func TitleNames() []string {
	names := make([]string, NumTitles)
	for i, t := range catalog {
		names[i] = t.Name
	}
	return names
}

// String implements fmt.Stringer for TitleID.
func (id TitleID) String() string {
	if id < 0 || id >= NumTitles {
		return fmt.Sprintf("title(%d)", int(id))
	}
	return catalog[id].Name
}
