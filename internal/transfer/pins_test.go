package transfer

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
)

// compressedDigests is the SHA-256 of what Compress made of every shape and
// of the benchmark's payload when it coded one segment after another on its
// caller. However its segments are shared out, the bytes are those.
var compressedDigests = map[string]string{
	"integer-column":              "587cba5b6211cbc12f74ef3eaca815ebbf2a3a1aa5df3ad3533a4adcc9ed1972",
	"double-column":               "28131745788913a181acfd2455fc76cd97c136a61ccd429315a728ab3a97996f",
	"double-column-full-mantissa": "08b3ab267a3fc50cb3e67ca9d4c6ca7155dead26516541afa2304755133c995e",
	"double-column-decimal":       "7f15561b4eb04635e9963680983a45d82069604ca7723ad1597d237b3d54ec14",
	"integer-column-with-nulls":   "9aa2c1df3cc49b55febcd543c9390ba0bde3f241619da76b15dead1e7c186c9a",
	"string-column":               "4283eced2ed22a0b7c387d7dbd5425e8427e6225665ea988075a0f8c74a07252",
	"two-parameter-envelope":      "d599696bb3c6481c5ec143204af82c3af40bbf74cab80be3949c7ada78b92ea3",
	"classifier":                  "fa02780a195b15ec3d377faeb5e651f9c883b6c054bfa43e676e2fed8bb10d8e",
	"random-64k":                  "d7eca9fe10f384e9d47e31d149827961d76ec32a2f5c2a196f64a92d130391cd",
	"empty":                       "8d911ddb31452a6a1588239c4b2ec675fdf92d392907a8bcc9b6c129c70c00a8",
	"len-0":                       "8d911ddb31452a6a1588239c4b2ec675fdf92d392907a8bcc9b6c129c70c00a8",
	"len-1":                       "4e0278d53c59b99e57fa7d1662a0f95126c48f6385264b305db4805da2939c47",
	"len-2":                       "a24c477a582aed2a4b4d8ca282342e954305c2888a2cb3a2eb8d1fa6ead912b4",
	"len-3":                       "9e23353bbf05ce6d5fc31da25cdf93b4a37b2fbd7fd05f101ccc378157f88e14",
	"len-4":                       "77936ab7188f1c232cb796de20995f16b56180c8b699940025b9e4ced3e66a8f",
	"len-5":                       "fcca8806462755dcc1da77887c27d4a40d8b31412b0f2f521511426f44860d6a",
	"len-6":                       "47034628d5206e7a71b01f48c632c7e3c69cce470fcde44fe3faee04f029e4f9",
	"len-7":                       "5bb3c1d05f4dd0db1398c8f5a15d1c77556b84fdd4987681d8147376de5423e0",
	"len-8":                       "ea05b93ae95da08a55c967d0479dca1b3f1ffad409476c4f70f685d008e360a3",
	"len-9":                       "ae9e036b46262a8359233d6ea7bebc13f44e5f5f47eb4cbc4d614dc0de241495",
	"len-10":                      "fd0053b9c298ec1a401554f5aae2c50bcc1eab14f6ba5dab33d10f7f77f40f72",
	"len-11":                      "2ac103b821b157c5bf9c6093b7caa949983abe0611ef388eaa1f2312d4178f75",
	"len-12":                      "d2228c8dda01b4b36d748e06bed81d51c0654baf3635af81c7dc66d74fe9206c",
	"len-13":                      "0b81c6b24dc761b98c2e1deb2a3c55914190d9b9e900da83babdf293ab99e067",
	"len-14":                      "7286cce1be1bcdc096a4a62fdf70a4872a7325d6091ef1b660eb11c35bba3932",
	"len-15":                      "0d712e5867174bc55c73c1de408c9990822597f8558c63a476015f3d0a2496f2",
	"len-16":                      "95a0a9a5ac982581c2942333b218e4604e7a61bc928900dbc34e7686f9f42e45",
	"len-17":                      "781745ba92fb1029ca0b2013f3c40ffbb54f1d35c541238d7a6d27614f3c11c6",
	"len-18":                      "12ba1900cdbc3bbdf7933b5a4dc636c942b58f17355f3b5b6cad4f6864b7b3ba",
	"len-19":                      "7e946653610ed147769cd78dd9a4f57cf0152290f89431988bb0f495578fff29",
	"len-20":                      "f70eef579c04c863765a246940c839bdbe7c77464746bf16a862820e529a3d94",
	"len-21":                      "83671a969b083aa7b6e7301da5059d77d7cdf3a48bf8fa443b9ffb64013403c9",
	"len-22":                      "0cbf51993ad9b86a3c15a0cc714ba60d232795758719ac8d2b96fd435c9dfe74",
	"len-23":                      "486b1863046de312609884c08c31351caf47c5601d08f7a5c0b7ad1eb998f4e1",
	"len-24":                      "72fb03b41f3717e995453fe42c043b93f1e2f5a7e5703d6fae115143231a6b11",
	"len-25":                      "803afa20a689d5b933f3647be8e7c895266705e9324c8c0a01d32622f0ccd427",
	"len-26":                      "98ddcd85f71764d2fd0ab55eb533787d8d7bddfb652409c766fef86980355fa9",
	"len-27":                      "69c2a2632c668d5d56dd770725dc5860e67395896957e6ff9710de6b8268d6ef",
	"len-28":                      "da96f342b2a38216f787911d5fd545f3ad9eaf3ad961278226e5955ac23509d7",
	"len-29":                      "9cc2f6f58a1b7f243edfbd09075cf0f02c5bdf779f56e8cdf9f9b2598ce21a66",
	"len-30":                      "e216e0fddcca8f7d1c1e9d3b6f860e0713312077fc6ec07790ff1250b9d68c8d",
	"len-31":                      "ba2cfd80766e8b2e358a212fed7dca0a0030f76c9d3646b8638479b597f09381",
	"len-32":                      "a91784c5352228b12f394e4b816dd258e42e796c29b61a8d8e6f82f84e963d0e",
	"len-33":                      "7d15a6e67e2a43d5b3764d74533325741bd8290e2d69c28c4ad59a498e786347",
	"len-34":                      "f4f6e5948ac4b757ceaefac2f4ec39d2fa974954f15b6dea3a698856458b0e18",
	"len-35":                      "19b2c04017ba728d6745de1a4ed0db7caae7129e1aab76d8e3e49500a42645ba",
	"len-36":                      "5b3a05db715f6b90df25f1755ac9f133af11ae0c345dd76d2e52973bb579a969",
	"len-37":                      "b150d678a6f0d7f8c47b1b27859733c43f35255a4f56dc73b7653117185697d2",
	"len-38":                      "677eeacdd2894cfc7da31f305c63039ce042fd21af43c5202ba095a8c2c85a06",
	"len-39":                      "9123ac3df55750a9e985dae8907051e65bf1a42c083933bdbc40967cb2906b57",
	"len-40":                      "8d153187fe0a69aa194488c4d9b2e36a7a3db71a23f121f81b7fe22b382ed0c3",
	"bench-payload":               "02c9c15d7008050478189b7176ef0a4fbfc8bc6827971156aabd144ae3916c00",
}

// TestCompressOutputIsPinned checks every pin from four goroutines at once,
// so that concurrent Compress calls share the coder pool as an extract
// server's sessions do.
func TestCompressOutputIsPinned(t *testing.T) {
	all := append(shapes(t), shape{name: "bench-payload", data: benchPayload(t)})
	if len(all) != len(compressedDigests) {
		t.Fatalf("%d payloads, %d pins", len(all), len(compressedDigests))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range all {
				comp, err := Compress(s.data)
				if err != nil {
					t.Errorf("%s: %v", s.name, err)
					return
				}
				sum := sha256.Sum256(comp)
				if got := hex.EncodeToString(sum[:]); got != compressedDigests[s.name] {
					t.Errorf("%s: %d compressed bytes hash to %s, pinned %s", s.name, len(comp), got, compressedDigests[s.name])
				}
			}
		}()
	}
	wg.Wait()
}
