package scihadoop

import (
	"reflect"
	"testing"
	"time"

	"scikey/internal/faults"
	"scikey/internal/grid"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
)

type stubRemote struct{ mapreduce.Remote }

type stubCache struct{ mapreduce.MapOutputCache }

// TestRunOptionsReachEveryJob: the three builders hand QueryConfig's
// RunOptions to the Job whole, so every run-time setting — including one
// added to RunOptions later — arrives without a per-builder copy line. The
// loop is driven by reflection: a new RunOptions field fails here only until
// this test gives it a non-zero value.
func TestRunOptionsReachEveryJob(t *testing.T) {
	fs, ds, _ := setup(t, grid.NewBox(grid.Coord{0, 0}, []int{8, 8}))
	inj, err := faults.NewFromSpec("map:0:error@0")
	if err != nil {
		t.Fatal(err)
	}
	opts := mapreduce.RunOptions{
		Parallelism: 3,
		Retry:       mapreduce.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
		Faults:      inj,
		Shuffle:     &mapreduce.ShuffleConfig{Mode: mapreduce.ShuffleTCP},
		Timeout:     time.Minute,
		Remote:      stubRemote{},
		MapCache:    stubCache{},
		CacheKey:    "k",
		Obs:         obs.New(),
	}
	want := reflect.ValueOf(opts)
	for i := 0; i < want.NumField(); i++ {
		if want.Field(i).IsZero() {
			t.Fatalf("give RunOptions.%s a non-zero value in this test", want.Type().Field(i).Name)
		}
	}
	cfg := QueryConfig{DS: ds, Op: Max, RunOptions: opts}
	simple, _, err := SimpleKeyJob(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, _, err := AggKeyJob(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	box, err := BoxKeyJob(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for kind, job := range map[string]*mapreduce.Job{"simple": simple, "agg": agg, "box": box} {
		got := reflect.ValueOf(job.RunOptions)
		for i := 0; i < want.NumField(); i++ {
			if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
				t.Errorf("%s job: RunOptions.%s = %v, want %v", kind,
					want.Type().Field(i).Name, got.Field(i).Interface(), want.Field(i).Interface())
			}
		}
	}
}
